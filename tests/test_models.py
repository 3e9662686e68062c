import io
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import norm

import smoothcore as sc
from conftest import B2, CHI2, P2
from smoothcore.models import _LOG_2PI, _normal_logpdf, categorical_rows


def test_lgm_densities_match_reference_normals():
    rng = sc.make_rng(1)
    y = rng.normal(size=6)
    model = sc.make_lgm(0.9, 0.6, 1.0, y)
    xs = rng.normal(size=10)
    nexts = rng.normal(size=10)
    sd0 = 0.6 / math.sqrt(1 - 0.81)
    assert np.allclose(
        model.initial_log_density(xs), norm.logpdf(xs, 0.0, sd0), atol=1e-12
    )
    assert np.allclose(
        model.transition_log_density(xs, nexts),
        norm.logpdf(nexts, 0.9 * xs, 0.6),
        atol=1e-12,
    )
    for t in range(6):
        assert np.allclose(
            model.observation_log_density(t, xs),
            norm.logpdf(y[t], xs, 1.0),
            atol=1e-12,
        )


def plain_normal_logpdf(x, mean, sd):
    # the expression _normal_logpdf computed before it worked in place
    z = (np.asarray(x, dtype=float) - mean) / sd
    return -0.5 * z * z - np.log(sd) - 0.5 * _LOG_2PI


@pytest.mark.parametrize("shape", ["rows x columns", "scalar against array", "0-d"])
def test_normal_logpdf_keeps_the_bits_of_the_plain_expression(shape):
    rng = sc.make_rng(4)
    scale = np.exp(rng.normal(scale=4.0, size=7))
    if shape == "rows x columns":
        x = rng.normal(size=(7, 1)) * scale[:, None]
        mean = 0.9 * (rng.normal(size=(1, 300)) * 3.0)
    elif shape == "scalar against array":
        x = float(rng.normal())
        mean = rng.normal(size=300) * 5.0
    else:
        x = np.float64(rng.normal())
        mean = np.array(rng.normal())
    inputs = [np.copy(x), np.copy(mean)]
    for sd in (0.6, 1.0, 3.7):
        expected = plain_normal_logpdf(x, mean, sd)
        observed = _normal_logpdf(x, mean, sd)
        assert np.shape(observed) == np.shape(expected)
        assert np.asarray(observed).tobytes() == np.asarray(expected).tobytes()
    assert np.array_equal(x, inputs[0]) and np.array_equal(mean, inputs[1])


def test_svm_observation_density_matches_scale_mixture():
    rng = sc.make_rng(2)
    y = rng.normal(size=4)
    model = sc.make_svm(0.3, 0.5, 1.2, y)
    xs = rng.normal(size=10)
    # Y_t | X_t = x is centered Gaussian with scale beta * exp(x / 2)
    for t in range(4):
        assert np.allclose(
            model.observation_log_density(t, xs),
            norm.logpdf(y[t], 0.0, 1.2 * np.exp(xs / 2.0)),
            atol=1e-12,
        )


@pytest.mark.parametrize("build", ["lgm", "svm"])
def test_transition_density_integrates_to_one(build):
    rng = sc.make_rng(3)
    y = rng.normal(size=3)
    if build == "lgm":
        model = sc.make_lgm(0.9, 0.6, 1.0, y)
        spread = 0.6
    else:
        model = sc.make_svm(0.3, 0.5, 1.0, y)
        spread = 0.5
    sources = rng.normal(size=10)
    for x in sources:
        grid = np.linspace(0.9 * x - 10 * spread, 0.9 * x + 10 * spread, 4001)
        density = np.exp(model.transition_log_density(np.full_like(grid, x), grid))
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-6)


def test_finite_hmm_mixing_bounds_hand_values(hmm2):
    bounds = hmm2.mixing_bounds
    assert bounds.sigma_minus == pytest.approx(0.3, abs=0)
    assert bounds.sigma_plus == pytest.approx(0.7, abs=0)
    # chi . E0 = 0.6;  min_k (P E_t)_k = 0.35 (t in {1, 2}), 0.5 (t = 3)
    assert bounds.c_minus == pytest.approx(0.35, abs=1e-15)
    assert bounds.rho == pytest.approx(1.0 - 0.3 / 0.7)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 4), st.integers(0, 4))
def test_finite_hmm_mixing_bounds_recomputed(seed, n_states, horizon):
    rng = sc.make_rng(seed)
    P = rng.uniform(0.1, 1.0, size=(n_states, n_states))
    P /= P.sum(axis=1, keepdims=True)
    E = rng.uniform(0.1, 1.0, size=(horizon + 1, n_states))
    chi = rng.uniform(0.1, 1.0, size=n_states)
    chi /= chi.sum()
    model = sc.make_finite_hmm(P, E, chi)
    bounds = model.mixing_bounds
    assert bounds.sigma_minus == P.min()
    assert bounds.sigma_plus == P.max()
    candidates = [float(chi @ E[0])]
    for t in range(1, horizon + 1):
        candidates.append(float(np.min(P @ E[t])))
    assert bounds.c_minus == pytest.approx(min(candidates), rel=1e-15)
    assert 0.0 <= bounds.rho < 1.0


def test_mixing_bounds_validation():
    with pytest.raises(ValueError):
        sc.MixingBounds(sigma_minus=0.0, sigma_plus=1.0, c_minus=0.1)
    with pytest.raises(ValueError):
        sc.MixingBounds(sigma_minus=0.8, sigma_plus=0.7, c_minus=0.1)
    with pytest.raises(ValueError):
        sc.MixingBounds(sigma_minus=0.1, sigma_plus=0.2, c_minus=0.0)
    flat = sc.MixingBounds(sigma_minus=0.5, sigma_plus=0.5, c_minus=0.5)
    assert flat.rho == 0.0
    for sigma_plus in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sc.MixingBounds(sigma_plus=sigma_plus)
    upper = sc.MixingBounds(sigma_plus=2.0)
    assert upper.sigma_minus is None and upper.c_minus is None
    assert upper.rho is None


@pytest.mark.parametrize("family", ["lgm", "svm"])
def test_gaussian_kernels_carry_their_exact_peak(family):
    y = [0.1, -0.4, 0.3]
    make = sc.make_lgm if family == "lgm" else sc.make_svm
    model = make(0.9, 0.6, 1.0, y)
    peak = 1.0 / (0.6 * math.sqrt(2.0 * math.pi))
    assert model.mixing_bounds == sc.MixingBounds(sigma_plus=peak)
    # the density into phi x is the peak, and no other point exceeds it
    x = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(np.exp(model.transition_log_density(x, 0.9 * x)), peak)
    grid = np.exp(model.transition_log_density(0.5, np.linspace(-5, 5, 1001)))
    assert grid.max() <= peak
    own = sc.MixingBounds(sigma_plus=3.0, sigma_minus=0.1, c_minus=0.2)
    assert make(0.9, 0.6, 1.0, y, mixing_bounds=own).mixing_bounds is own


def test_model_constructor_validation():
    y = [0.1, 0.2]
    with pytest.raises(ValueError):
        sc.make_lgm(1.0, 0.6, 1.0, y)
    with pytest.raises(ValueError):
        sc.make_lgm(0.9, 0.0, 1.0, y)
    with pytest.raises(ValueError):
        sc.make_lgm(0.9, 0.6, -1.0, y)
    with pytest.raises(ValueError):
        sc.make_lgm(0.9, 0.6, 1.0, [])
    with pytest.raises(ValueError):
        sc.make_svm(-1.0, 0.5, 1.0, y)
    with pytest.raises(ValueError):
        sc.make_svm(0.3, 0.5, 0.0, y)


def test_finite_hmm_constructor_validation():
    E = np.array([[0.8, 0.3], [0.2, 0.7]])
    with pytest.raises(ValueError):
        sc.make_finite_hmm(np.array([[0.5, 0.5]]), E, CHI2)
    bad_rows = np.array([[0.7, 0.2], [0.4, 0.6]])
    with pytest.raises(ValueError):
        sc.make_finite_hmm(bad_rows, E, CHI2)
    zero_entry = np.array([[1.0, 0.0], [0.4, 0.6]])
    with pytest.raises(ValueError):
        sc.make_finite_hmm(zero_entry, E, CHI2)
    with pytest.raises(ValueError):
        sc.make_finite_hmm(P2, np.array([[0.8, 0.0], [0.2, 0.7]]), CHI2)
    with pytest.raises(ValueError):
        sc.make_finite_hmm(P2, np.array([[0.8], [0.2]]), CHI2)
    with pytest.raises(ValueError):
        sc.make_finite_hmm(P2, E, np.array([0.6, 0.5]))


Y_NAN = [0.1, 0.2, 0.3, 0.4, 0.5, np.nan, 0.7]
E_NAN = np.array([[0.8, 0.3], [0.2, np.nan], [0.8, 0.3]])


@pytest.mark.parametrize(
    "build, where",
    [
        (lambda: sc.make_lgm(0.9, 0.6, 1.0, Y_NAN), r"observations\[5\]"),
        (lambda: sc.make_svm(0.9, 0.5, 1.0, Y_NAN), r"observations\[5\]"),
        (lambda: sc.make_lgm(0.9, 0.6, 1.0, [0.0, np.inf]), r"observations\[1\]"),
        (lambda: sc.make_finite_hmm(P2, E_NAN, CHI2), r"emission\[1, 1\]"),
        (
            lambda: sc.make_finite_hmm([[np.nan, 0.5], [0.4, 0.6]], E_NAN, CHI2),
            r"transition_matrix\[0, 0\]",
        ),
        (
            lambda: sc.make_finite_hmm(P2, E_NAN[[0, 2]], [np.nan, 0.4]),
            r"initial\[0\]",
        ),
    ],
    ids=["lgm", "svm", "lgm-inf", "emission", "transition", "initial"],
)
def test_constructors_reject_non_finite_inputs(build, where):
    # a NaN passes every ordered comparison, so it must be named outright
    with pytest.raises(ValueError, match=where):
        build()


def test_finite_hmm_densities_are_table_lookups(hmm2):
    x = np.array([0, 1, 0, 1])
    x_next = np.array([0, 0, 1, 1])
    expected = np.log(P2[x, x_next])
    assert np.allclose(hmm2.transition_log_density(x, x_next), expected, atol=1e-15)
    assert np.allclose(hmm2.initial_log_density(x), np.log(CHI2[x]), atol=1e-15)
    # fixture symbols are [0, 1, 1, 0]
    assert np.allclose(
        hmm2.observation_log_density(2, x), np.log(B2[x, 1]), atol=1e-15
    )
    assert hmm2.state_dtype == np.int64
    assert hmm2.finite.independent is False


def test_additive_functional_validation():
    with pytest.raises(ValueError):
        sc.AdditiveFunctional(lag=-1, horizon=3, term=lambda t, x: x)
    with pytest.raises(ValueError):
        sc.AdditiveFunctional(lag=4, horizon=3, term=lambda t, *xs: 0.0)
    with pytest.raises(ValueError):
        sc.AdditiveFunctional(lag=0, horizon=3, term=lambda t, x: x, oscillation=-1.0)
    f = sc.state_sum_functional(5)
    assert f.lag == 0 and f.horizon == 5
    assert f.term(3, 2.5) == 2.5


def test_simulation_shapes_and_reproducibility():
    x1, y1 = sc.simulate_lgm(0.9, 0.6, 1.0, 12, sc.make_rng(9))
    x2, y2 = sc.simulate_lgm(0.9, 0.6, 1.0, 12, sc.make_rng(9))
    assert x1.shape == y1.shape == (13,)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    xs, ys = sc.simulate_svm(0.3, 0.5, 1.0, 7, sc.make_rng(9))
    assert xs.shape == ys.shape == (8,)
    states, symbols = sc.simulate_finite_hmm(P2, B2, CHI2, 9, sc.make_rng(11))
    assert states.shape == symbols.shape == (10,)
    assert set(np.unique(states)) <= {0, 1}
    assert set(np.unique(symbols)) <= {0, 1}


def test_finite_hmm_simulation_matches_chain_frequencies():
    # long single path: occupancy of state 0 near the stationary mass
    states, _ = sc.simulate_finite_hmm(P2, B2, CHI2, 200_000, sc.make_rng(5))
    stationary = 0.4 / 0.7  # pi solving pi P = pi for P2
    assert np.mean(states == 0) == pytest.approx(stationary, abs=0.01)


@pytest.mark.parametrize(
    "P, chi",
    [
        ([[0.5, 0.2], [0.3, 0.7]], CHI2),
        (P2, [0.1, 0.2]),
        ([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]], CHI2),
    ],
    ids=["row-sum", "initial-sum", "non-square"],
)
def test_simulation_and_model_reject_the_same_chains(P, chi):
    # before, the simulator handed a row's missing mass to its last state
    with pytest.raises(ValueError):
        sc.simulate_finite_hmm(P, B2, chi, 5, sc.make_rng(1))
    with pytest.raises(ValueError):
        sc.make_finite_hmm(P, [[0.8, 0.3]], chi)


def test_emissions_from_symbols_hand_example():
    E = sc.emissions_from_symbols(B2, [1, 0])
    assert np.allclose(E, [[0.2, 0.7], [0.8, 0.3]])


def test_observations_csv_round_trip(tmp_path):
    rng = sc.make_rng(10)
    x = rng.normal(size=5)
    y = rng.normal(size=5)
    target = tmp_path / "obs.csv"
    sc.write_observations_csv(target, x, y)
    text = target.read_text(encoding="utf-8")
    assert text.startswith("t,x_true,y\n")
    assert "\r" not in text
    x_back, y_back = sc.read_observations_csv(target)
    assert np.array_equal(x, x_back)
    assert np.array_equal(y, y_back)


def test_observations_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        sc.read_observations_csv(io.StringIO("time,x,y\n0,1,2\n"))


@pytest.mark.parametrize(
    "text, field",
    [("t,x_true,y\n0,0.1,abc\n", "'abc'"), ("t,x_true,y\n0,0.1,2\n1,x,2\n", "'x'")],
    ids=["y", "x_true"],
)
def test_observations_csv_names_the_line_of_a_non_numeric_field(text, field):
    with pytest.raises(ValueError) as info:
        sc.read_observations_csv(io.StringIO(text))
    line = text.count("\n")
    assert f"line {line}:" in str(info.value) and field in str(info.value)


X_IO = [0.5, -1.25, 2.0]
Y_IO = [0.1, 0.2, -0.3]
TABLE_IO = sc.VarianceTable(
    rows=[
        sc.VarianceRow(
            method="path_space", horizon=2, n_particles=4, lag=0, variance=0.25,
            mean_estimate=-1.5, mean_wall_seconds=0.125, replicates=3,
        )
    ]
)


def history_io():
    model = sc.make_lgm(0.9, 0.6, 1.0, Y_IO)
    return sc.run_filter(model, sc.bootstrap_proposal(model), 4, 2, sc.make_rng(3))


WRITERS = {
    "write_observations_csv": lambda f: sc.write_observations_csv(f, X_IO, Y_IO),
    "dump_history_csv": lambda f: sc.dump_history_csv(history_io(), f),
    "write_kalman_csv": lambda f: sc.write_kalman_csv(
        sc.kalman_smooth(0.9, 0.6, 1.0, Y_IO), f
    ),
    "VarianceTable.to_csv": lambda f: TABLE_IO.to_csv(f),
}
# reader -> (the writer whose output it reads, read, check of what it read)
READERS = {
    "read_observations_csv": (
        "write_observations_csv",
        sc.read_observations_csv,
        lambda got: np.array_equal(got[0], X_IO) and np.array_equal(got[1], Y_IO),
    ),
    "VarianceTable.from_csv": (
        "VarianceTable.to_csv",
        sc.VarianceTable.from_csv,
        lambda got: got == TABLE_IO,
    ),
}


def file_of_form(form, tmp_path, text=None):
    """A file of one of the four accepted forms, holding ``text``."""
    if form in ("str", "Path"):
        path = tmp_path / "file.csv"
        if text is not None:
            path.write_bytes(text.encode("utf-8"))
        return str(path) if form == "str" else path
    if form == "StringIO":
        handle = io.StringIO()
    else:
        handle = tempfile.SpooledTemporaryFile(mode="w+")
    if text is not None:
        handle.write(text)
        handle.seek(0)
    return handle


def text_in(file):
    if isinstance(file, (str, pathlib.Path)):
        return pathlib.Path(file).read_bytes().decode("utf-8")
    file.seek(0)
    return file.read()


@pytest.mark.parametrize("form", ["str", "Path", "StringIO", "SpooledTemporaryFile"])
@pytest.mark.parametrize("entry", [*WRITERS, *READERS])
def test_text_io_takes_paths_and_any_text_handle(entry, form, tmp_path):
    reference = tmp_path / "reference.csv"
    if entry in WRITERS:
        WRITERS[entry](str(reference))
        file = file_of_form(form, tmp_path)
        WRITERS[entry](file)
        assert text_in(file) == reference.read_bytes().decode("utf-8")
    else:
        writer, read, check = READERS[entry]
        WRITERS[writer](str(reference))
        text = reference.read_bytes().decode("utf-8")
        assert check(read(file_of_form(form, tmp_path, text)))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_formatting_round_trips(value):
    from smoothcore.models import format_float

    assert float(format_float(value)) == value


def reference_row_draws(probabilities, uniforms, rows):
    # the comparison-matrix lookup, each row's CDF closed at 1 from the
    # first entry that reaches the row's total
    cdf = np.cumsum(probabilities, axis=1)
    for row in cdf:
        row[np.flatnonzero(row >= row[-1])[0]:] = 1.0
    return np.argmax(cdf[rows] > uniforms[:, None], axis=1)


def test_categorical_rows_boundaries_per_row():
    # the categorical_indices boundary cases, each row on its own
    table = np.array([[0.2, 0.3, 0.5], [0.3, 0.3, 0.3999]])
    uniforms = np.array([0.0, 0.19999, 0.2, 0.5, 0.9999, 0.99999])
    rows = np.array([0, 0, 0, 0, 0, 1])
    assert np.array_equal(
        categorical_rows(table, uniforms, rows), [0, 0, 1, 2, 2, 2]
    )
    # without row indices draw m reads row m
    assert np.array_equal(categorical_rows(table, np.array([0.2, 0.6])), [1, 2])


def test_categorical_rows_never_draw_a_trailing_zero_probability():
    # row 0 sums to 1 - 2**-53 before a zero; row 1 ends in a positive
    # entry, which keeps the slack
    table = np.array([[0.1] * 10 + [0.0], [0.1] * 9 + [0.05, 0.05]])
    uniforms = np.full(3, 1 - 2**-53)
    assert np.array_equal(categorical_rows(table, uniforms, [0, 1, 0]), [9, 10, 9])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(width=10, n_rows=1, seed=1)  # a row ending in 0 whose total rounds below 1
def test_categorical_rows_matches_the_comparison_lookup(width, n_rows, seed):
    rng = np.random.default_rng(seed)
    table = rng.random((n_rows, width))
    table[rng.random((n_rows, width)) < 0.3] = 0.0  # flat CDF stretches
    table[:, 0] += 1e-3
    table /= table.sum(axis=1, keepdims=True)
    rows = rng.integers(0, n_rows, size=200)
    uniforms = rng.random(200)
    # uniforms sitting exactly on CDF values hit the strict inequality
    cdf = np.cumsum(table, axis=1)
    uniforms[:50] = cdf[rows[:50], rng.integers(0, width, size=50)] % 1.0
    assert np.array_equal(
        categorical_rows(table, uniforms, rows),
        reference_row_draws(table, uniforms, rows),
    )
