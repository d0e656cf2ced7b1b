import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from itertools import islice

from fixlab import (
    BIASED_RULES,
    NEUTRAL_RULES,
    EvolutionaryGraph,
    Rule,
    expected_mutants,
    expected_mutants_step_residual,
    generate,
    init_vector,
    iterate,
    kernel_matrix,
    neutral_part,
    parse_rule,
    step,
    step_values,
)
from fixlab.dynamics import block_height, blocks, std

from . import loop_iterate as ref
from .util import path3, random_digraph, star_graph, two_cycle

RULES = list(NEUTRAL_RULES)


# ------------------------------------------------------------- rule names


def test_parse_rule_accepts_every_name():
    for rule in set(NEUTRAL_RULES) | set(BIASED_RULES):
        assert parse_rule(rule.value) is rule
        assert parse_rule(rule) is rule


def test_parse_rule_rejects_unknown():
    with pytest.raises(ValueError):
        parse_rule("bdd")


def test_neutral_part():
    assert neutral_part(Rule.BD_B) is Rule.BD
    assert neutral_part(Rule.BD_D) is Rule.BD
    assert neutral_part(Rule.DB_B) is Rule.DB
    assert neutral_part(Rule.DB_D) is Rule.DB
    assert neutral_part(Rule.LD) is Rule.LD
    assert neutral_part(Rule.BD) is Rule.BD


def test_rule_str_is_flag_value():
    assert str(Rule.BD_B) == "bd-b"


# ------------------------------------------------------------- vectors


def test_init_vector_is_indicator():
    g = path3()
    pv = init_vector(g, [1])
    assert pv.values.tolist() == [0.0, 1.0, 0.0]
    assert pv.t == 0


def test_step_increments_time_and_checks_length():
    g = two_cycle()
    pv = init_vector(g, [0])
    nxt = step(g, Rule.BD, pv)
    assert nxt.t == 1
    with pytest.raises(ValueError):
        step_values(g, Rule.BD, np.zeros(3))


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("shape", [(5,), (7,), (6, 1), (1, 6)])
def test_iterate_refuses_anything_but_a_vector_of_length_n(rule, shape):
    g = random_digraph(3, 6)
    # a short vector cut from a longer buffer: the kernel must not read on
    buf = np.full(8, np.nan)
    values = buf[:shape[0]] if len(shape) == 1 else np.zeros(shape)
    with pytest.raises(ValueError, match=r"population size \(6,\)"):
        next(iterate(g, rule, values))
    with pytest.raises(ValueError, match=r"population size \(6,\)"):
        step_values(g, rule, values)


@pytest.mark.parametrize("rule", RULES)
def test_iterate_takes_lists_and_integer_arrays_like_the_reference(rule):
    g = random_digraph(4, 6)
    want = next(ref.iterate(g, rule, np.array([0, 1, 0, 1, 1, 0])))
    for values in ([0, 1, 0, 1, 1, 0], np.array([0, 1, 0, 1, 1, 0]), (0.0, 1, 0, 1, 1, 0)):
        assert step_values(g, rule, values).tobytes() == want.tobytes()


@pytest.mark.parametrize("rule", RULES)
def test_iterate_never_writes_the_callers_vector(rule):
    g = random_digraph(5, 6)
    # the guard copies a strided vector but reads a contiguous one in place
    for values in (np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 12)[::2]):
        before = values.copy()
        seen = [v for _, v in zip(range(4), iterate(g, rule, values))]
        assert values.tobytes() == before.tobytes()
        assert len({id(v) for v in [values, *seen]}) == 5


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(
    np.float64, st.integers(1, 300),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
))
@example(np.array([0.3]))
@example(np.full(17, 0.1))
@example(np.full(10_000, 1.0 / 3.0))
@example(np.random.default_rng(0).random(10_000))
@example(np.random.default_rng(1).random(10_000) ** 9)
def test_std_helper_is_numpys_std(values):
    assert std(values) == float(np.std(values))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(
    np.float64, st.tuples(st.integers(1, 40), st.integers(1, 300)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
))
@example(np.full((32, 17), 0.1))
@example(np.random.default_rng(0).random((6, 10_000)))
@example(np.random.default_rng(1).random((2, 33_333)) ** 9)
def test_block_row_statistics_are_the_1d_ones(block):
    # the callers reduce a whole block along axis 1 and read one value a row
    mins, maxs = np.minimum.reduce(block, axis=1), np.maximum.reduce(block, axis=1)
    sums, stds = np.add.reduce(block, axis=1), std(block)
    for k, row in enumerate(block):
        assert (mins[k], maxs[k], sums[k]) == (row.min(), row.max(), np.add.reduce(row))
        assert stds[k] == std(row) == float(np.std(row))


def test_block_height_is_32_rows_up_to_2_to_the_16_cells():
    assert [block_height(n) for n in (1, 7, 2048, 2049, 10_000, 65_536, 10**6)] == [
        32, 32, 32, 31, 6, 1, 1]


@pytest.mark.parametrize("rule", RULES)
def test_blocks_hold_exactly_the_steps_asked_for(rule):
    g = random_digraph(6, 9)
    values = np.random.default_rng(6).random(9)
    for steps in (0, 1, 31, 32, 33, 70):
        got = list(blocks(g, rule, values, steps))
        assert [len(b) for b in got] == [32] * (steps // 32) + [steps % 32] * (steps % 32 > 0)
        want = list(islice(ref.iterate(g, rule, values), steps))
        assert [r.tobytes() for b in got for r in b] == [r.tobytes() for r in want]
    with pytest.raises(ValueError, match="steps must be nonnegative"):
        next(blocks(g, rule, values, -1))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000), n=st.integers(2, 30),
    p=st.floats(0.3, 1.0), weighted=st.booleans(), rule=st.sampled_from(RULES),
)
def test_kernels_have_no_negative_entry(seed, n, p, weighted, rule):
    # the engine clips below 0 on the first step only: with entries >= 0
    # a product of values in [0, 1] cannot fall below 0
    g = random_digraph(seed, n, p=p, weighted=weighted)
    assert (kernel_matrix(g, rule).data >= 0).all()


@pytest.mark.parametrize("rule", RULES)
def test_kernels_of_generated_and_hub_graphs_have_no_negative_entry(rule):
    graphs = [star_graph(40), star_graph(3)]
    # every leaf feeds the hub with weight 1: the hub's temperature is N - 1
    graphs.append(EvolutionaryGraph(
        50, [(0, j, 1.0 / 49) for j in range(1, 50)] + [(j, 0, 1.0) for j in range(1, 50)]))
    for kind, kw in (("preferential_attachment", {"m": 2}), ("erdos_renyi", {"p": 0.2}),
                     ("small_world", {"k": 4, "p": 0.3})):
        for weighting in ("random", "unweighted"):
            graphs.append(generate(kind, 300, seed=5, weighting=weighting, **kw))
    for g in graphs:
        assert (kernel_matrix(g, rule).data >= 0).all()


@pytest.mark.parametrize("rule", RULES)
def test_first_step_clips_a_vector_outside_the_unit_interval(rule):
    g = random_digraph(11, 8)
    values = np.array([-3.0, 2.5, 0.2, -0.5, 1.7, 0.0, 1.0, 0.4])
    raw = kernel_matrix(g, rule) @ values
    assert raw.min() < 0.0 and raw.max() > 1.0  # the product leaves [0, 1] both ways
    got = list(islice(iterate(g, rule, values), 3))
    want = list(islice(ref.iterate(g, rule, values), 3))
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    assert got[0].min() == 0.0 and got[0].max() == 1.0
    assert step_values(g, rule, values).tobytes() == want[0].tobytes()


# ------------------------------------------------------------- kernels


@pytest.mark.parametrize("rule", RULES)
def test_kernel_rows_are_stochastic(rule):
    for seed in (0, 5, 9):
        g = random_digraph(seed, 6)
        k = kernel_matrix(g, rule)
        rows = np.asarray(k.sum(axis=1)).ravel()
        assert np.allclose(rows, 1.0, atol=1e-12)
        assert k.toarray().min() >= -1e-15


@pytest.mark.parametrize("rule", RULES)
def test_constant_vectors_are_fixed_points(rule):
    g = random_digraph(12, 7)
    for c in (0.0, 0.25, 1.0):
        values = np.full(7, c)
        out = step_values(g, rule, values)
        assert np.allclose(out, c, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 500),
    data=st.data(),
)
def test_kernel_linearity(seed, data):
    g = random_digraph(seed % 10, 5)
    rule = data.draw(st.sampled_from(RULES))
    x = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=5, max_size=5)))
    y = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=5, max_size=5)))
    a = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    mix = a * x + (1.0 - a) * y
    lhs = step_values(g, rule, mix)
    rhs = a * step_values(g, rule, x) + (1.0 - a) * step_values(g, rule, y)
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 500), data=st.data())
def test_bracket_nesting_one_step(seed, data):
    g = random_digraph(seed % 10, 6)
    rule = data.draw(st.sampled_from(RULES))
    x = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=6, max_size=6)))
    out = step_values(g, rule, x)
    assert out.min() >= x.min() - 1e-14
    assert out.max() <= x.max() + 1e-14


def test_bd_step_by_hand_on_path():
    # center mutant: P' = P + (W^T P - T * P) / N
    g = path3()
    p = np.array([0.0, 1.0, 0.0])
    out = step_values(g, Rule.BD, p)
    # vertex 0 receives w_10 = 1/2 from the center
    assert out[0] == pytest.approx(0.5 / 3.0)
    # center loses temperature 2 times its own probability
    assert out[1] == pytest.approx(1.0 - 2.0 / 3.0)
    assert out[2] == pytest.approx(0.5 / 3.0)


def test_db_step_by_hand_on_path():
    # P'_i = (1 - 1/N) P_i + (1/(N k_in)) sum of incoming P
    g = path3()
    p = np.array([1.0, 0.0, 0.0])
    out = step_values(g, Rule.DB, p)
    assert out[0] == pytest.approx(2.0 / 3.0)
    assert out[1] == pytest.approx(1.0 / 6.0)
    assert out[2] == pytest.approx(0.0)


def test_ld_step_by_hand_on_two_cycle():
    # two edges: P'_i = (1 - k_in/m) P_i + (1/m) sum of incoming P
    g = two_cycle()
    p = np.array([1.0, 0.0])
    out = step_values(g, Rule.LD, p)
    assert out[0] == pytest.approx(0.5)
    assert out[1] == pytest.approx(0.5)


def test_db_kernel_requires_incoming_edges():
    g = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5), (2, 1, 1.0)])
    # vertex ids all have incoming edges here; drop one by rebuilding
    lopsided = EvolutionaryGraph(2, [(0, 1, 1.0), (1, 0, 1.0)])
    assert kernel_matrix(lopsided, Rule.DB) is not None
    no_in = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    with pytest.raises(ValueError, match="no incoming edges"):
        kernel_matrix(no_in, Rule.DB)
    # the graph with full in-degrees still works
    assert kernel_matrix(g, Rule.DB) is not None


def test_kernel_of_biased_rule_is_its_family_kernel():
    # fitness only matters to samplers; the deterministic step is the
    # family kernel either way
    g = random_digraph(8, 5)
    assert np.allclose(
        kernel_matrix(g, Rule.BD_B).toarray(),
        kernel_matrix(g, Rule.BD).toarray(),
    )
    assert np.allclose(
        kernel_matrix(g, Rule.DB_D).toarray(),
        kernel_matrix(g, Rule.DB).toarray(),
    )


def test_kernel_accepts_rule_names():
    g = random_digraph(8, 5)
    assert kernel_matrix(g, "bd") is kernel_matrix(g, Rule.BD)
    assert kernel_matrix(g, "db-b") is kernel_matrix(g, Rule.DB)
    with pytest.raises(ValueError, match="unknown rule"):
        kernel_matrix(g, "moran")


# ------------------------------------------------------------- observables


def test_expected_mutants_sums_probabilities():
    g = path3()
    pv = init_vector(g, [0, 2])
    assert expected_mutants(pv) == pytest.approx(2.0)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_bd_expected_mutants_recurrence(seed):
    # one-step bookkeeping: next total = total + total/N - (1/N) sum T_i P_i
    g = random_digraph(seed, 8)
    values = init_vector(g, [seed % 8]).values
    for _ in range(25):
        nxt = step_values(g, Rule.BD, values)
        assert expected_mutants_step_residual(g, values, nxt) <= 1e-12 * g.n
        values = nxt
