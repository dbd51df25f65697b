"""FLOPs counter."""

import dataclasses


from repro.swin import SurrogateConfig, surrogate_flops
from repro.swin.flops import attention_flops


class TestFlops:
    def test_breakdown_sums(self):
        fb = surrogate_flops(SurrogateConfig())
        assert fb.encoder + fb.decoder == fb.total
        assert fb.total == sum(dataclasses.asdict(fb).values())

    def test_all_components_positive(self):
        fb = surrogate_flops(SurrogateConfig.paper())
        for name, v in dataclasses.asdict(fb).items():
            assert v > 0, name

    def test_paper_config_decoder_dominates(self):
        """Full-resolution recovery convolutions dominate at paper scale
        — consistent with Table II's activation analysis."""
        fb = surrogate_flops(SurrogateConfig.paper())
        assert fb.decoder > fb.encoder

    def test_flops_grow_with_mesh(self):
        small = surrogate_flops(SurrogateConfig())
        big = surrogate_flops(SurrogateConfig.paper())
        assert big.total > 10 * small.total

    def test_attention_flops_quadratic_in_window(self):
        a = attention_flops(tokens=1024, window_volume=16, dim=32)
        b = attention_flops(tokens=1024, window_volume=64, dim=32)
        assert b > a
