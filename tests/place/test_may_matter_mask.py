"""Soundness of the decoder's per-bit "may matter" mask.

:meth:`DecodedDesign.patch_for_bit` dismisses every bit whose mask entry
is False without decoding it.  These tests decode every dismissed
block-0 bit of S8 anyway, for three designs, and check that none of
them could have produced a patch reaching the output cone.
"""

import numpy as np
import pytest

from repro.fpga.resources import FF_INIT, FF_RESERVED, ResourceKind
from repro.place.flow import implement

#: Kinds ``patch_for_bit`` never decodes: no hardware reads them.
STRUCTURAL = {
    ResourceKind.COLUMN_OVERHEAD,
    ResourceKind.CLOCK_CONFIG,
    ResourceKind.IOB_CONFIG,
    ResourceKind.BRAM_CONTENT,
    ResourceKind.BRAM_INTERCONNECT,
    ResourceKind.CARRY,
    ResourceKind.RESERVED,
    ResourceKind.PIP_RESERVED,
}
#: Kinds whose flip patches one LUT/FF: outside the cone the patch may
#: exist but must not be relevant.
LOGIC = {
    ResourceKind.LUT_CONTENT,
    ResourceKind.LUT_INPUT_MUX,
    ResourceKind.FF_CONFIG,
    ResourceKind.CTRL_MUX,
}


@pytest.mark.parametrize("hw_name", ["mult_hw", "lfsr_hw", "counter_hw"])
def test_masked_bits_never_patch_the_cone(hw_name, request):
    hw = request.getfixturevalue(hw_name)
    d = hw.decoded
    mask = d._may_matter
    in_clb = np.zeros(mask.size, dtype=bool)
    in_clb[d._clb_matrix.ravel()] = True
    golden = hw.bitstream.bits.copy()
    dismissed = np.flatnonzero(~mask[: hw.device.block0_bits])
    assert dismissed.size > 0.9 * hw.device.block0_bits
    for bit in dismissed:
        bit = int(bit)
        loc = hw.device.classify_bit(*hw.bitstream.locate(bit))
        if not in_clb[bit] or loc.kind in STRUCTURAL:
            assert loc.kind in STRUCTURAL, (bit, loc)
            continue
        hw.bitstream.bits[bit] ^= 1
        try:
            patch = d._patch_clb_bit(loc.row, loc.col, loc.kind, loc.detail)
        finally:
            hw.bitstream.bits[bit] ^= 1
        if patch is None:
            continue
        assert loc.kind in LOGIC, (bit, loc)
        assert not (loc.kind is ResourceKind.FF_CONFIG and loc.detail[1] in (FF_INIT, FF_RESERVED))
        assert not d.patch_is_relevant(patch), (bit, loc)
    assert np.array_equal(hw.bitstream.bits, golden)


def test_mask_built_on_first_patch_not_at_decode(counter_spec, s8):
    hw = implement(counter_spec, s8)
    assert "_may_matter" not in vars(hw.decoded)
    hw.decoded.patch_for_bit(0)
    assert vars(hw.decoded)["_may_matter"].shape == (hw.device.total_config_bits,)
