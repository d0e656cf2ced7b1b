import pytest

from fixlab import (
    UPPER_BOUND_RULES,
    Rule,
    SolveOptions,
    bound_report,
    build_chain,
    fixation_exact,
    generate,
    neutral_part,
    solve,
    upper_bound_single,
)

from .util import random_digraph, two_cycle


def test_bd_birth_bound_from_temperature():
    # two-cycle: the start vertex has temperature 1, so the bound is r/(r+1)
    assert upper_bound_single(two_cycle(), 0, 2.0, Rule.BD_B) == pytest.approx(2.0 / 3.0)
    assert upper_bound_single(two_cycle(), 0, 1.5, Rule.BD_B) == pytest.approx(0.6)


def test_bd_birth_bound_is_tight_on_two_cycle():
    exact = fixation_exact(build_chain(two_cycle(), Rule.BD_B, r=2.0), [0])
    assert upper_bound_single(two_cycle(), 0, 2.0, Rule.BD_B) == pytest.approx(exact)


def test_bd_death_bound_on_two_cycle():
    # single incoming weight 1 makes every denominator term 1
    assert upper_bound_single(two_cycle(), 0, 2.0, Rule.BD_D) == pytest.approx(1.0)


def test_bd_birth_bound_uses_temperature_everywhere():
    g = random_digraph(5, 6)
    for i in range(g.n):
        expect = 2.0 / (2.0 + float(g.temperatures[i]))
        assert upper_bound_single(g, i, 2.0, Rule.BD_B) == pytest.approx(min(1.0, expect))


def test_bounds_accept_rule_names():
    g = random_digraph(5, 6)
    assert upper_bound_single(g, 0, 2.0, "bd-b") == upper_bound_single(g, 0, 2.0, Rule.BD_B)
    rep = bound_report(g, 0, 1.5, "bd-d")
    assert rep.rule is Rule.BD_D


@pytest.mark.parametrize("rule", UPPER_BOUND_RULES)
@pytest.mark.parametrize("r", [1.5, 2.0])
def test_exact_fixation_never_exceeds_upper(rule, r):
    for seed in (1, 8, 20):
        g = random_digraph(seed, 5)
        chain = build_chain(g, rule, r=r)
        for i in range(g.n):
            exact = fixation_exact(chain, [i])
            assert exact <= upper_bound_single(g, i, r, rule) + 1e-12


@pytest.mark.parametrize("rule", UPPER_BOUND_RULES + (Rule.LD,))
@pytest.mark.parametrize("r", [1.0, 1.7])
def test_lower_bound_is_the_neutral_answer(rule, r):
    g = random_digraph(3, 5)
    rep = bound_report(g, 2, r, rule, epsilon=1e-8)
    neutral = solve(g, [2], SolveOptions(rule=neutral_part(rule), epsilon=1e-8)).fixation
    assert rep.lower == pytest.approx(neutral)
    exact = fixation_exact(build_chain(g, rule, r=r), [2])
    assert rep.lower <= exact + 2e-8
    assert exact <= rep.upper + 1e-12
    assert rep.lower <= rep.upper + 1e-12


def test_death_biased_db_bounds_are_never_informative_on_row_stochastic_graphs():
    # each outgoing row sums to 1, so both db-side formulas come out >= 1
    # (exactly 1 when a vertex has a single weight-1 edge) and the clamped
    # upper carries no information
    for seed in (0, 4, 9):
        g = random_digraph(seed, 6)
        for i in range(g.n):
            for rule in (Rule.DB_B, Rule.DB_D):
                rep = bound_report(g, i, 1.5, rule)
                assert rep.upper == 1.0
                assert rep.formula_available


def test_ld_has_no_upper_formula():
    rep = bound_report(two_cycle(), 0, 2.0, Rule.LD)
    assert not rep.formula_available
    assert rep.upper == 1.0
    assert rep.vacuous_upper


def test_disadvantageous_fitness_is_rejected():
    with pytest.raises(ValueError):
        upper_bound_single(two_cycle(), 0, 0.5, Rule.BD_B)
    with pytest.raises(ValueError):
        bound_report(two_cycle(), 0, 0.99, Rule.BD_B)


def test_neutral_rules_have_no_upper_formula_path():
    with pytest.raises(ValueError):
        upper_bound_single(two_cycle(), 0, 1.5, Rule.BD)


def test_lower_bound_matches_solve():
    g = random_digraph(13, 6)
    direct = solve(g, [3], SolveOptions(rule=Rule.DB, epsilon=1e-8)).fixation
    assert bound_report(g, 3, 1.0, Rule.DB_B, epsilon=1e-8).lower == pytest.approx(direct)


@pytest.mark.parametrize("kind, n, params, epsilon", [
    ("erdos_renyi", 8, {"seed": 3, "p": 0.5}, 1e-6),  # README's graph
    ("preferential_attachment", 9, {"seed": 0, "m": 2}, 1e-3),
])
def test_lower_bound_never_exceeds_the_neutral_value(kind, n, params, epsilon):
    # lower is the bottom of a neutral bracket, and min_i (K^t x0)_i <= pi.x0;
    # the bracket midpoint it once reported lay above the exact value here
    g = generate(kind, n, **params)
    exact = fixation_exact(build_chain(g, Rule.BD), [2])
    lower = bound_report(g, 2, 1.0, Rule.BD_B, epsilon=epsilon).lower
    assert exact - epsilon <= lower <= exact
