"""Unit tests for the detector registry and the uniform result contract."""

import pytest

from repro import (
    CommunityDetector,
    DetectionRequest,
    DetectionResult,
    OCAResult,
    available_detectors,
    get_detector,
    register_detector,
)
from repro.errors import AlgorithmError
from repro.generators import ring_of_cliques


@pytest.fixture(scope="module")
def ring():
    return ring_of_cliques(4, 5)


BUILTIN = ("oca", "lfk", "cfinder", "cpm")


class TestRegistry:
    @pytest.mark.parametrize("name", BUILTIN)
    def test_builtin_detectors_registered(self, name):
        detector = get_detector(name)
        assert isinstance(detector, CommunityDetector)
        assert detector.name == name

    @pytest.mark.parametrize("label", ["OCA", "LFK", "CFinder", "Cpm"])
    def test_lookup_is_case_insensitive(self, label):
        assert get_detector(label).name == label.lower()

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(AlgorithmError, match="cfinder"):
            get_detector("Louvain")

    def test_available_detectors_lists_builtins(self):
        names = available_detectors()
        for name in BUILTIN:
            assert name in names

    def test_custom_detector_registration(self, ring):
        g, _ = ring

        @register_detector("constant")
        class ConstantDetector:
            name = "constant"

            def detect(self, request):
                from repro.communities import Cover

                return DetectionResult(
                    cover=Cover([set(request.graph.nodes())]),
                    algorithm=self.name,
                )

        try:
            result = get_detector("constant").detect(DetectionRequest(graph=g))
            assert len(result.cover) == 1
        finally:
            from repro.detectors import registry

            registry._DETECTORS.pop("constant", None)


class TestUniformContract:
    @pytest.mark.parametrize("name", BUILTIN)
    def test_result_shape(self, ring, name):
        g, _ = ring
        result = get_detector(name).detect(DetectionRequest(graph=g, seed=0))
        assert isinstance(result, DetectionResult)
        assert result.algorithm == name
        assert result.params == {}
        assert len(result.cover) >= 1
        assert result.elapsed_seconds >= 0.0
        assert isinstance(result.stats, dict)

    def test_oca_result_is_detection_result_subtype(self, ring):
        g, _ = ring
        result = get_detector("oca").detect(DetectionRequest(graph=g, seed=0))
        assert isinstance(result, OCAResult)
        assert isinstance(result, DetectionResult)
        assert result.raw_cover is not None
        assert result.stats["c_source"] in ("power_method", "cache")
        assert result.stats["engine_pool"] == "none"

    def test_params_are_echoed(self, ring):
        g, _ = ring
        result = get_detector("cpm").detect(
            DetectionRequest(graph=g, seed=0, params={"k": 4})
        )
        assert result.params == {"k": 4}
        assert result.stats["k"] == 4

    @pytest.mark.parametrize(
        "name, param",
        [
            ("oca", "gamma"),
            ("lfk", "gamma"),
            ("cpm", "gamma"),
            # The published quadratic overlap scan is gone; naming it is
            # an error, not a silently ignored flag.
            ("cpm", "faithful_overlap"),
            ("cfinder", "faithful_overlap"),
            # Every detector runs one kernel; the old representation
            # knob is not a parameter of any of them.
            ("oca", "representation"),
            ("lfk", "representation"),
            ("cfinder", "representation"),
            ("cpm", "representation"),
            ("modularity_greedy", "representation"),
        ],
    )
    def test_unknown_params_rejected(self, ring, name, param):
        g, _ = ring
        with pytest.raises(AlgorithmError, match="unknown parameter"):
            get_detector(name).detect(
                DetectionRequest(graph=g, params={param: True})
            )

    def test_oca_config_object_param(self, ring):
        from repro import OCAConfig

        g, _ = ring
        config = OCAConfig(min_community_size=3)
        result = get_detector("oca").detect(
            DetectionRequest(graph=g, seed=1, params={"config": config})
        )
        assert all(len(c) >= 3 for c in result.cover)

    def test_oca_config_conflicts_with_params(self, ring):
        from repro import OCAConfig

        g, _ = ring
        with pytest.raises(AlgorithmError):
            get_detector("oca").detect(
                DetectionRequest(
                    graph=g,
                    params={"config": OCAConfig(), "min_community_size": 3},
                )
            )


class TestCompatWrappers:
    def test_legacy_wrappers_are_gone(self):
        import repro
        import repro.baselines

        for name in ("oca", "lfk", "cfinder", "clique_percolation"):
            assert not hasattr(repro, name), name
        # (``repro.baselines.lfk`` is the kernel module, not a wrapper.)
        for name in ("cfinder", "clique_percolation", "natural_community"):
            assert not hasattr(repro.baselines, name), name

    def test_registry_path_is_warning_free(self, ring):
        import warnings

        g, _ = ring
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in BUILTIN:
                get_detector(name).detect(DetectionRequest(graph=g, seed=0))
