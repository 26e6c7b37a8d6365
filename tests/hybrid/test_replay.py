"""Background replay off a FluidEngine rate history: volume conservation
and independence of replays (the refine loop replays one history once per
round with a different selection each time)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hybrid.fluid import FluidEngine
from repro.units import us

N_LINKS = 5
EPOCH = us(20)

flow_sets = st.lists(
    st.tuples(
        st.lists(st.integers(0, N_LINKS - 1), min_size=1, max_size=3, unique=True),
        st.integers(1_000, 2_000_000),  # wire bytes
        st.integers(0, us(300)),  # start
    ),
    min_size=1,
    max_size=12,
)
engine_knobs = st.sampled_from([(0.0, None), (0.02, None), (0.02, 2), (0.0, 1)])


def run_engine(flows, knobs):
    rate_eps, ripple_rounds = knobs
    eng = FluidEngine(
        [0.0125, 0.0125, 0.005, 0.003125, 0.0125],
        keep_history=True, rate_eps=rate_eps, ripple_rounds=ripple_rounds,
    )
    for links, wire, start in flows:
        eng.add_flow(links, wire, start)
    assert len(eng.run()) == len(flows)
    return eng


@settings(max_examples=60, deadline=None)
@given(flows=flow_sets, knobs=engine_knobs, data=st.data())
def test_replayed_bytes_sum_to_wire_bytes(flows, knobs, data):
    """Per link, the replayed epochs add up to the wire bytes of the
    selected flows that cross it — whatever the damping did to the rates."""
    hist = run_engine(flows, knobs).history
    picked = data.draw(st.sets(st.integers(0, len(flows) - 1)))
    bg = hist.replay_bg(EPOCH, range(N_LINKS), picked)
    for l in range(N_LINKS):
        want = sum(flows[i][1] for i in picked if l in flows[i][0])
        got = sum(bg[l].values())
        assert abs(got - want) <= 1e-9 * max(want, 1.0)


selections = st.tuples(
    st.sets(st.integers(0, N_LINKS - 1)), st.sets(st.integers(0, 11))
)


@settings(max_examples=60, deadline=None)
@given(flows=flow_sets, knobs=engine_knobs, a=selections, b=selections)
def test_replays_off_one_history_do_not_interact(flows, knobs, a, b):
    """Replaying selection A then B off one history gives each exactly what
    a history that is only ever asked for that one selection gives."""
    shared = run_engine(flows, knobs).history
    got_a = shared.replay_bg(EPOCH, *a)
    got_b = shared.replay_bg(EPOCH, *b)
    assert got_a == run_engine(flows, knobs).history.replay_bg(EPOCH, *a)
    assert got_b == run_engine(flows, knobs).history.replay_bg(EPOCH, *b)
    assert shared.replay_bg(EPOCH, *a) == got_a
