"""Logical depth against a reference greedy layering."""

import hashlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditdicke.qpe import BUILDERS
from quditdicke.reference import DickeSpecSpinS
from quditdicke.report import logical_depth
from quditdicke.sim import Circuit, QuditRegister, sum_, xd
from quditdicke.suites import spin_s_grid, sud_grid


def reference_depth(circuit):
    """Greedy layering over a list of wire sets: an untagged op is its own set; the ops of one tag are one
    set, the union of their wires, placed where the tag first appears.  Each set lands one layer after the
    last layer of any of its wires."""
    groups, tagged = [], {}
    for op in circuit.ops:
        wires = set(op.wires())
        if op.layer_tag is None:
            groups.append(wires)
        elif op.layer_tag in tagged:
            tagged[op.layer_tag].update(wires)
        else:
            tagged[op.layer_tag] = wires
            groups.append(wires)
    last, depth = {}, 0
    for wires in groups:
        layer = 1 + max((last.get(w, -1) for w in wires), default=-1)
        for w in wires:
            last[w] = layer
        depth = max(depth, layer + 1)
    return depth


@st.composite
def tagged_circuits(draw):
    """Up to 40 one- and two-target ops with up to two controls on 2 to 6 wires, each untagged or carrying one
    of three tags, so one tag's ops may sit far apart with other ops between them."""
    width = draw(st.integers(2, 6))
    ops = []
    for _ in range(draw(st.integers(0, 40))):
        wires = draw(st.permutations(range(width)))
        tag = draw(st.sampled_from([None, None, "a", "b", "c"]))
        controls = [(w, 1) for w in wires[2 : 2 + draw(st.integers(0, min(2, width - 2)))]]
        if draw(st.booleans()):
            ops.append(xd(wires[0], controls=controls, layer_tag=tag))
        else:
            ops.append(sum_(wires[0], wires[1], controls=controls, layer_tag=tag))
    return Circuit(QuditRegister.of_dims([2] * width), ops)


# a tag's second op, far after the first, widens a layer placed before the ops between them
@example(Circuit(QuditRegister.of_dims([2] * 3), [xd(0, layer_tag="a"), xd(1), xd(1), sum_(2, 1), xd(2, layer_tag="a")]))
@example(Circuit(QuditRegister.of_dims([2, 2]), []))
@settings(deadline=None, max_examples=100)
@given(tagged_circuits())
def test_logical_depth_is_the_reference_greedy_layering(circuit):
    assert logical_depth(circuit) == reference_depth(circuit)


def test_logical_depth_of_every_builder_on_the_criterion_3_grid_is_unchanged():
    depths = []
    for spec in [*spin_s_grid(3, 4), *sud_grid(3, 4)]:
        family = "spin-s" if isinstance(spec, DickeSpecSpinS) else "sud"
        for build in BUILDERS[family].values():
            circuit = build(spec)
            depth = logical_depth(circuit)
            assert depth == reference_depth(circuit), (build.__name__, spec)
            depths.append(depth)
    # recorded before logical_depth became two passes
    assert (len(depths), sum(depths)) == (480, 6530)
    assert hashlib.sha256(repr(depths).encode()).hexdigest() == "9cac2c3393b71d42bfe1ba12347d24cbbf2579489ef1bc0d2f0c5cfb40a3ee42"
