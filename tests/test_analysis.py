import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_synthesis import angle, estimand, positive, squeezing, uncertainty

import reference

from qre import analysis
from qre.analysis import (
    BLOCK,
    LoopPolynomial,
    StateSpace,
    SweepResult,
    closed_loop_error_system,
    delta_sweep,
    frequency_response,
    grid_peak_gain,
    hinf_norm,
    loop_polynomial,
)
from qre.errors import (
    DomainError,
    QreError,
    ShapeMismatch,
    SingularAtFrequency,
    UnstableSystem,
)
from qre.presets import build_study, feedback_benchmark_config, series_benchmark_config
from qre.uncertainty import squeezer_uncertainty


def lag():
    return StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


def stack(systems):
    """The (A, B, C, D) stacks of a list of systems of one shape, as a
    delta_sweep builder returns them."""
    return tuple(np.stack([getattr(s, x) for s in systems]) for x in "ABCD")


def responses(A, B, C, D, eigA, W):
    """The resolvent kernel on the (A, B, C, D) stacks of K systems."""
    return analysis._responses(analysis._system_matrices(A, B, C, D), eigA, W)


def max_singular_value(m):
    """Reference largest singular value: one dense SVD."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def loop_response(ss, omegas):
    """Reference frequency response: one dense solve per frequency."""
    n = ss.A.shape[0]
    return [
        ss.C @ np.linalg.solve(1j * w * np.eye(n) - ss.A, ss.B) + ss.D
        for w in omegas
    ]


def bisection_norm(ss, rel_tol=1e-6):
    """Reference peak gain: bisection on the bounded-real Hamiltonian test,
    bracketed from a coarse grid; the midpoint of the final bracket.

    A level counts as crossed where the Hamiltonian has an eigenvalue within
    1e-8 of the imaginary axis, or where the gain at some eigenvalue's
    frequency exceeds it.  The second test catches a near-tangent crossing:
    rounding can move its two eigenvalues off the axis as a pair, whose
    frequency lies between the crossings, where the gain exceeds the
    level."""

    def crossed(gamma):
        A, B, C, D = ss.A, ss.B, ss.C, ss.D
        Rinv = np.linalg.inv(gamma**2 * np.eye(D.shape[1]) - D.conj().T @ D)
        Am = A + B @ Rinv @ D.conj().T @ C
        Q = C.conj().T @ (np.eye(D.shape[0]) + D @ Rinv @ D.conj().T) @ C
        H = np.block([[Am, B @ Rinv @ B.conj().T], [-Q, -Am.conj().T]])
        eigs = np.linalg.eigvals(H)
        if np.min(np.abs(eigs.real)) < 1e-8 * max(1.0, np.max(np.abs(eigs))):
            return True
        return max(map(max_singular_value, loop_response(ss, eigs.imag))) > gamma

    dnorm = max_singular_value(ss.D)
    grid = np.logspace(-3, 3, 50)
    grid = np.concatenate([-grid[::-1], grid])
    lo = max(max(max_singular_value(g) for g in loop_response(ss, grid)), dnorm)
    hi = lo * 10 + dnorm
    lo = max(lo, dnorm * (1 + 1e-10))
    while crossed(hi):
        hi *= 10
    while (hi - lo) > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if crossed(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def unit_columns(T):
    """T rotated from the right, a pair of columns at a time, until every
    column has unit norm, after scaling it so that its squared singular
    values sum to n; the rotations keep the singular values, so the
    condition number is T's (Davies & Higham, BIT 40, 2000)."""
    n = T.shape[1]
    T = T * np.sqrt(n) / np.linalg.norm(T)
    todo = list(range(n))
    while len(todo) > 1:
        g = np.linalg.norm(T[:, todo], axis=0) ** 2
        i, j = todo[np.argmin(g)], todo[np.argmax(g)]
        gi, gj = g.min(), g.max()
        if gj - gi <= 1e-14:
            break
        # c t_i + s t_j has unit norm: (gj - 1) t^2 + 2 gij t + gi - 1 = 0
        # in t = s / c, which has a real root as gi < 1 < gj
        gij = np.vdot(T[:, i], T[:, j]).real
        t = (-gij + np.sqrt(gij**2 - (gj - 1) * (gi - 1))) / (gj - 1)
        c = 1 / np.sqrt(1 + t * t)
        T[:, [i, j]] = T[:, [i, j]] @ np.array([[c, -c * t], [c * t, c]])
        todo.remove(i)
    return T


def random_system(seed, stable=True, feedthrough=False, cond=3.0, shape=None):
    """Seeded complex system whose poles keep a margin from the imaginary
    axis: in the left half-plane, or straddling it when not ``stable``.
    ``cond`` is the condition number of the eigenvector matrix of A, whose
    unit-norm columns are the eigenvectors as numpy returns them, up to
    phase; with ``cond=None`` that matrix is a raw Gaussian one.  ``shape`` fixes the
    state, output and input counts (n, p, m); by default they are drawn."""
    rng = np.random.default_rng(seed)
    n, m, p = rng.integers(1, 7), rng.integers(1, 4), rng.integers(1, 4)
    if shape is not None:
        n, p, m = shape
    T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if cond is not None:
        W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        T = unit_columns(np.linalg.qr(T)[0] * np.logspace(0.0, np.log10(cond), n)
                         @ np.linalg.qr(W)[0])
    re = -rng.uniform(0.2, 3.0, n)
    if not stable:
        re[: (n + 1) // 2] *= -1
    poles = re + 1j * rng.uniform(-5.0, 5.0, n)
    a = T @ np.diag(poles) @ np.linalg.inv(T)
    b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    c = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    d = rng.standard_normal((p, m)) if feedthrough else np.zeros((p, m))
    return StateSpace(a, b, c, d)


class TestStateSpace:
    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            StateSpace(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), [[0.0]])

    def test_stability_flag(self):
        assert lag().spectral_abscissa < 0
        assert StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]]).spectral_abscissa >= 0


class TestClosedLoopErrorSystem:
    def test_zero_output_maps_give_zero_system(self, series_study):
        import dataclasses

        p = series_study.plant
        est = dataclasses.replace(
            series_study.estimator("classical"),
            C_K=np.zeros((1, 2)),
        )
        loop = closed_loop_error_system(
            p.A, p.B, p.C, p.D, np.zeros((1, 2)), series_study.S, est
        )
        g = frequency_response(loop, [0.0, 1.0])
        assert all(np.allclose(m, 0) for m in g)

    def test_state_dimensions(self, series_study):
        cls_loop = series_study.closed_loop("classical", -1.0)
        coh_loop = series_study.closed_loop("coherent", -1.0)
        assert cls_loop.A.shape == (4, 4)
        assert coh_loop.A.shape == (8, 8)

    def test_dc_gain_oracle(self, series_study):
        loop = series_study.closed_loop("classical", -1.0)
        dc = frequency_response(loop, [0.0])[0]
        expected = -loop.C @ np.linalg.solve(loop.A, loop.B)
        np.testing.assert_allclose(dc, expected, atol=1e-12)

    def test_channel_selection_width(self, series_study):
        # default channel keeps the first half of the doubled input block
        loop = series_study.closed_loop("classical", 0.0)
        assert loop.B.shape[1] == series_study.S.shape[0]


class TestFrequencyResponse:
    def test_static_system(self):
        ss = StateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.5]]
        )
        g = frequency_response(ss, [0.0, 1.0, 10.0])
        assert g.shape == (3, 1, 1)
        np.testing.assert_array_equal(g, [[[2.5]]] * 3)

    def test_first_order_lag(self):
        g0, g1 = frequency_response(lag(), [0.0, 1.0])
        assert abs(g0[0, 0]) == pytest.approx(1.0)
        assert abs(g1[0, 0]) == pytest.approx(1 / np.sqrt(2))

    def test_high_frequency_asymptote(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.7]])
        g = frequency_response(ss, [1e9])[0]
        assert abs(g[0, 0]) == pytest.approx(0.7, rel=1e-6)

    def test_conjugate_symmetry_of_doubled_system(self, series_study):
        # with fully doubled input/output maps the gain is symmetric in
        # frequency; selecting a single column breaks this, which is why
        # norms are evaluated over both signs
        a = series_study.augmented
        ss = StateSpace(a.A, a.B, a.C, a.D)
        for w in (0.1, 1.0, 3.7, 20.0):
            gp, gm = frequency_response(ss, [w, -w])
            assert max_singular_value(gp) == pytest.approx(
                max_singular_value(gm), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_frequency_solves(self, seed):
        ss = random_system(seed, stable=seed % 2 == 0, feedthrough=True)
        omegas = np.linspace(-20.0, 20.0, 2 * BLOCK + 37)
        g = frequency_response(ss, omegas)
        assert g.shape == (omegas.size,) + ss.D.shape
        np.testing.assert_allclose(g, loop_response(ss, omegas), rtol=1e-12)

    def test_pole_past_the_first_block_raises(self):
        omegas = np.linspace(0.0, 10.0, 3 * BLOCK)
        k = BLOCK + 40
        ss = StateSpace(np.diag([-1.0, 1j * omegas[k]]), np.ones((2, 1)),
                        np.ones((1, 2)), [[0.0]])
        with pytest.raises(SingularAtFrequency, match="system pole"):
            frequency_response(ss, omegas)
        frequency_response(ss, np.delete(omegas, k))

    @pytest.mark.parametrize("scale", [1.0, 1e-100])
    def test_pole_check_is_relative(self, scale):
        # an exact hit raises at any scale, the origin included; a pole
        # 1e-9 of its modulus away from the frequency is far enough
        w = 2.0 * scale
        for omegas, pole in (([0.0], 0.0), ([w], 1j * w)):
            ss = StateSpace([[pole]], [[1.0]], [[1.0]], [[0.0]])
            with pytest.raises(SingularAtFrequency, match="system pole"):
                frequency_response(ss, omegas)
        ss = StateSpace([[1j * w * (1 + 1e-9)]], [[1.0]], [[1.0]], [[0.0]])
        assert np.isfinite(frequency_response(ss, [w])).all()

    @pytest.mark.parametrize("omegas, bad", [([np.nan, np.inf, 1.0], "nan"),
                                             ([1.0, 2.0, -np.inf], "-inf")])
    def test_non_finite_frequency_raises(self, omegas, bad):
        with pytest.raises(ValueError, match=f"^frequencies must be finite, got {bad}$"):
            frequency_response(lag(), omegas)

    def test_empty_frequency_list(self):
        g = frequency_response(random_system(3), [])
        assert g.shape[0] == 0 and g.ndim == 3

    def test_memory_is_flat_in_the_number_of_frequencies(self, series_study):
        # Blocks of BLOCK frequencies: ten times the frequencies may cost
        # only the larger output array, plus 64 KiB for the rest of the
        # call (about 7 KiB measured).
        loop = series_study.closed_loop("coherent", 0.3)
        frequency_response(loop, [1.0])
        peaks = []
        for n in (4000, 40000):
            omegas = np.linspace(-1e3, 1e3, n)
            tracemalloc.start()
            try:
                g = frequency_response(loop, omegas)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= g.nbytes + 64 * 1024


class TestHessenbergKernel:
    """The resolvent kernel reduces each system once to Hessenberg form and
    eliminates across frequencies; every case is checked against one dense
    solve per frequency."""

    @staticmethod
    def check(ss, omegas=np.linspace(-20.0, 20.0, 101)):
        g = frequency_response(ss, omegas)
        reference = np.reshape(loop_response(ss, omegas), g.shape)
        np.testing.assert_allclose(g, reference, rtol=1e-12)

    @staticmethod
    def system(a, seed=0, p=2, m=3):
        rng = np.random.default_rng(seed)
        n = len(a)
        b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        c = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        return StateSpace(a, b, c, rng.standard_normal((p, m)))

    @pytest.mark.parametrize("seed", range(3))
    def test_a_frequency_row_per_system(self, seed):
        # the level-set kernel's resolvent path: K systems of a stack, each
        # at its own frequencies, over more than one block
        systems = [random_system(seed + k, feedthrough=True, shape=(4, 2, 3))
                   for k in range(3)]
        rng = np.random.default_rng(seed)
        W = np.sort(rng.uniform(-20.0, 20.0, (3, BLOCK)), axis=1)
        A, B, C, D = stack(systems)
        g = responses(A, B, C, D, np.linalg.eigvals(A), W)
        for ss, w, gk in zip(systems, W, g):
            np.testing.assert_allclose(gk, loop_response(ss, w), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_no_reflection_below_three_states(self, n, seed):
        self.check(random_system(seed, stable=False, feedthrough=True,
                                 shape=(n, 2, 2)))

    def test_triangular_dynamics(self):
        # every column is zero below its subdiagonal: identity reflectors
        rng = np.random.default_rng(1)
        a = np.triu(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        self.check(self.system(a))

    def test_hessenberg_dynamics_with_a_zero_subdiagonal_entry(self):
        rng = np.random.default_rng(2)
        a = np.triu(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)), -1)
        a[3, 2] = 0.0
        self.check(self.system(a))

    @pytest.mark.parametrize("offset", [0.0, 1e-9])
    def test_a_small_leading_entry_pivots_on_the_subdiagonal(self, offset):
        # i w - a_00 is 0 or 1e-9 at w = 2: without the row swap the
        # elimination divides by it
        a = np.array([[2j + offset, 1.0, 2.0], [1.0, -1.0, 0.5], [0.0, 1.0, -2.0]])
        self.check(self.system(a), np.array([-2.0, 0.0, 2.0, 3.0]))

    @pytest.mark.parametrize("p, m", [(0, 2), (2, 0), (0, 0)])
    def test_no_outputs_or_no_inputs(self, p, m):
        ss = random_system(4, feedthrough=True, shape=(4, p, m))
        assert frequency_response(ss, [0.0, 1.0]).shape == (2, p, m)
        self.check(ss)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_jordan_block(self, rotated):
        ss = jordan_system(5, 5, 2, 3)
        if rotated:
            rng = np.random.default_rng(5)
            Q = np.linalg.qr(rng.standard_normal((5, 5))
                             + 1j * rng.standard_normal((5, 5)))[0]
            ss = StateSpace(Q @ ss.A @ Q.conj().T, Q @ ss.B, ss.C @ Q.conj().T, ss.D)
        self.check(ss)

    @pytest.mark.parametrize("a, w", [
        (np.diag([-1.0, 2.0j]), 2.0),
        (np.ones((2, 2)), 0.0),  # rows equal at w = 0: the pivot cancels
        (np.diag([-1.0, -2.0, 3.0j, -4.0]), 3.0),
    ])
    def test_an_exact_zero_pivot_raises(self, a, w, monkeypatch):
        # with the pole check out of the way, the elimination itself names
        # the frequency and the system; it never returns inf or nan
        monkeypatch.setattr(analysis, "_pole_offsets", lambda eigA, W: None)
        good, bad = self.system(-np.eye(len(a))), self.system(a)
        with pytest.raises(SingularAtFrequency, match=f"{1j * w}") as info:
            responses(*stack([good, bad]), np.zeros((2, len(a))),
                      np.array([[1.0, w], [1.0, w]]))
        assert info.value.system == 1


def assert_same_bits(got, want):
    """The same array to the bit, signs of zeros included, or the same
    error class and message, naming the same system."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, QreError):
        assert (str(got), got.system) == (str(want), want.system)
    else:
        np.testing.assert_array_equal(got, want, strict=True)
        assert got.tobytes() == want.tobytes()


def check_same_bits(systems, W, eigA=None):
    """analysis._responses against the frozen elimination of reference.py on
    the stack of ``systems`` at frequencies W (a row per system)."""
    A, B, C, D = stack(systems)
    eigA = np.linalg.eigvals(A) if eigA is None else eigA
    got = reference.outcome(responses, A, B, C, D, eigA, W)
    assert_same_bits(got, reference.outcome(reference.responses, A, B, C, D, eigA, W))
    return got


class TestSameBitsAsTheFrozenElimination:
    """The pole screen and the elimination that swaps only where a pivot
    moves return what the frozen reference returns, to the bit, and raise
    where it raises."""

    @pytest.mark.parametrize("K", [1, 3])
    def test_a_stack_over_several_blocks(self, K):
        systems = [random_system(K + k, feedthrough=True, shape=(5, 2, 3))
                   for k in range(K)]
        rng = np.random.default_rng(K)
        W = np.sort(rng.uniform(-20.0, 20.0, (K, 2 * BLOCK + 37)), axis=1)
        assert W.shape[1] > max(BLOCK // K, 1)
        check_same_bits(systems, W)

    @pytest.mark.parametrize("seed", range(3))
    def test_steps_that_swap_rows(self, seed):
        # a subdiagonal larger than most leading entries: rows swap at most
        # steps, and the small leading entry of the first row swaps near w = 2
        rng = np.random.default_rng(seed)
        a = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        a += np.diag(rng.uniform(5.0, 50.0, 5), -1)
        small = np.array([[2j + 1e-9, 1.0, 2.0], [1.0, -1.0, 0.5], [0.0, 1.0, -2.0]])
        W = np.linspace(-30.0, 30.0, BLOCK + 11)
        for systems in ([TestHessenbergKernel.system(a, seed)],
                        [TestHessenbergKernel.system(small, seed),
                         TestHessenbergKernel.system(-np.eye(3) - np.eye(3, k=-1), seed)]):
            check_same_bits(systems, np.tile(np.append(W, 2.0), (len(systems), 1)))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_shapes(self, n, p, m):
        systems = [random_system(n + k, stable=k == 0, feedthrough=True,
                                 shape=(n, p, m)) for k in range(2)]
        W = np.tile(np.linspace(-8.0, 8.0, BLOCK + 5), (2, 1))
        check_same_bits(systems, W)

    def test_benchmark_loops_on_the_oracle_grid(self, series_study, feedback_study):
        for study in (series_study, feedback_study):
            loops = [study.closed_loop(name, d) for name in study.channels
                     for d in (-1.0, 0.3)]
            for ss in loops:
                check_same_bits([ss], analysis.ORACLE_GRID[None])
            same_n = [ss for ss in loops if len(ss.A) == len(loops[-1].A)]
            check_same_bits(same_n, np.tile(analysis.ORACLE_GRID, (len(same_n), 1)))


class TestPoleScreen:
    """Only an eigenvalue with |Re lambda| <= 2e-12 |lambda| can come within
    1e-12 |lambda| of i w; the kernel tests those alone, and raises as the
    frozen reference raises."""

    @pytest.mark.parametrize("ratio, screened, hit", [
        (0.5e-12, True, True),   # within 1e-12 |lambda| of i w
        (1.5e-12, True, False),  # screened in, but not that near
        (3e-12, False, False),   # screened out
    ])
    def test_a_pole_beside_the_frequency(self, ratio, screened, hit):
        w = 2.0
        eigA = np.array([[-1.0, complex(-ratio * w, w)]])  # |Re| / |lambda| = ratio
        assert analysis._near_axis(eigA).tolist() == [[False, screened]]
        ss = StateSpace(np.diag(eigA[0]), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])
        got = check_same_bits([ss], np.array([[1.0, w, 3.0]]), eigA)
        assert isinstance(got, SingularAtFrequency) == hit

    @pytest.mark.parametrize("j0, j1, system", [
        (BLOCK // 2 + 7, 9, 1),  # system 1 hits in the first block, system 0 in the second
        (9, BLOCK // 2 + 7, 0),
        (20, 9, 0),              # one block: the first system, then the first frequency
    ])
    def test_hits_in_two_systems(self, j0, j1, system):
        W = np.tile(np.linspace(0.0, 10.0, 2 * BLOCK), (2, 1))
        eigA = np.array([[-1.0, 1j * W[0, j0]], [-2.0, 1j * W[1, j1]]])
        systems = [StateSpace(np.diag(e), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])
                   for e in eigA]
        got = check_same_bits(systems, W, eigA)
        assert isinstance(got, SingularAtFrequency) and got.system == system
        assert str(got) == f"i*omega = {1j * W[system, (j0, j1)[system]]} is a system pole"

    @pytest.mark.parametrize("zero, pole, pole_first", [
        (9, BLOCK // 2 + 7, False),  # the zero pivot's block comes first
        (BLOCK // 2 + 7, 9, True),
        (20, 9, True),               # one block: its pole check runs first
    ])
    def test_a_pole_and_a_zero_pivot(self, zero, pole, pole_first):
        # system 0's elimination meets an exact zero pivot at w = W[zero]
        # while the eigenvalues passed for it stay clear of the axis; system
        # 1's eigenvalues, as passed, put a pole at W[pole]
        W = np.tile(np.linspace(0.0, 10.0, 2 * BLOCK), (2, 1))
        systems = [StateSpace(np.diag([-1.0, 1j * W[0, zero]]), np.ones((2, 1)),
                              np.ones((1, 2)), [[0.0]]),
                   StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])]
        eigA = np.array([[-1.0, -1.0], [-1.0, 1j * W[1, pole]]])
        got = check_same_bits(systems, W, eigA)
        assert isinstance(got, SingularAtFrequency)
        assert ("system pole" in str(got), got.system) == (pole_first, int(pole_first))


def check_against_bisection(ss, rel_tol):
    norm, w = hinf_norm(ss, rel_tol, allow_unstable=True, return_frequency=True)
    assert norm == pytest.approx(bisection_norm(ss, rel_tol), rel=rel_tol)
    assert norm >= grid_peak_gain(ss) * (1 - 1e-6)
    at_w = (max_singular_value(ss.D) if np.isinf(w)
            else max_singular_value(frequency_response(ss, [w])[0]))
    assert at_w == pytest.approx(norm, rel=rel_tol)


def check_against_local_grid(ss, rel_tol):
    """A stable system's norm against the peak of a dense grid about its
    peak frequency (both lie within rel_tol / 2 of the true peak), and no
    lower than the coarse global grid's peak."""
    norm, w = hinf_norm(ss, rel_tol, return_frequency=True)
    g = frequency_response(ss, np.linspace(w - 0.05, w + 0.05, 20001))
    peak = np.linalg.svd(g, compute_uv=False)[:, 0].max()
    assert norm == pytest.approx(peak, rel=rel_tol)
    assert norm >= grid_peak_gain(ss) * (1 - 1e-6)


def check_benchmark_loops(check, series_study, feedback_study, deltas):
    for study in (series_study, feedback_study):
        for d in deltas[::4]:
            check(study.closed_loop("classical", d))
            check(study.closed_loop("coherent", d))


class TestLevelSetAgainstBisection:
    """The level-set kernel against the bisection it replaced: both lie
    within rel_tol / 2 of the true peak, so they agree within rel_tol.

    The random systems keep a well-conditioned eigenvector basis.  With raw
    Gaussian bases the bisection's own stopping test can stop far low
    (2.0e-4 on seed 64), so it is no reference there;
    test_ill_conditioned_systems checks such cases against a dense local
    grid instead.
    """

    rel_tol = 1e-6

    def check(self, ss):
        check_against_bisection(ss, self.rel_tol)

    def test_benchmark_loops(self, series_study, feedback_study, delta_grid_21):
        check_benchmark_loops(self.check, series_study, feedback_study,
                              delta_grid_21)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stable=st.booleans(),
        feedthrough=st.booleans(),
    )
    def test_random_systems(self, seed, stable, feedthrough):
        self.check(random_system(seed, stable, feedthrough))

    def test_near_tangent_crossing(self):
        # Just below the sharp peak of this Jordan block the two crossing
        # eigenvalues leave the axis by more than 1e-8; the reference still
        # reaches the peak of a dense local grid.
        ss = jordan_system(3, 5, 1, 3)
        w = hinf_norm(ss, self.rel_tol, return_frequency=True)[1]
        g = frequency_response(ss, np.linspace(w - 0.05, w + 0.05, 200001))
        peak = analysis._sigma_max(g).max()
        assert bisection_norm(ss, self.rel_tol) >= peak * (1 - self.rel_tol / 2)
        self.check(ss)

    @pytest.mark.parametrize("seed, feedthrough", [(64, False), (743, True)])
    def test_ill_conditioned_systems(self, seed, feedthrough):
        # On seed 743, at the level just below the peak, the two crossing
        # eigenvalues come out 5e-8 off the imaginary axis, past the 1e-8
        # relative tolerance.  Midpoints taken between crossings found by
        # that tolerance alone would stop 2e-6 low; those between all
        # eigenvalue frequencies still reach the peak of a local grid.
        ss = random_system(seed, feedthrough=feedthrough, cond=None)
        norm, w = hinf_norm(ss, self.rel_tol, return_frequency=True)
        g = frequency_response(ss, np.linspace(w - 0.05, w + 0.05, 20001))
        peak = np.linalg.svd(g, compute_uv=False)[:, 0].max()
        assert peak <= norm <= peak * (1 + self.rel_tol)


def jordan_system(seed, n, p=1, m=1):
    """Seeded stable system whose A is one exactly defective Jordan block:
    every eigenvector is the first unit vector."""
    rng = np.random.default_rng(seed)
    pole = -rng.uniform(0.2, 3.0) + 1j * rng.uniform(-5.0, 5.0)
    a = pole * np.eye(n) + rng.uniform(0.5, 2.0) * np.eye(n, k=1)
    b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    c = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    return StateSpace(a, b, c, np.zeros((p, m)))


class TestWorstStart:
    """The start only steers the iteration: any grid point's exact gain is
    a lower bound.  With the pick moved to the grid point of least modal
    gain, the level-set kernel still agrees with the bisection, and where
    the eigenvector matrix V is singular or ill-conditioned, with a dense
    local grid, as the bisection can stop low on a raw Gaussian basis (see
    TestLevelSetAgainstBisection)."""

    rel_tol = 1e-6

    def setup_method(self):
        coarse = analysis._grid_gains
        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(analysis, "_grid_gains", lambda *a: -coarse(*a))

    def teardown_method(self):
        self.patch.undo()

    def check(self, ss):
        check_against_bisection(ss, self.rel_tol)

    def test_benchmark_loops(self, series_study, feedback_study, delta_grid_21):
        check_benchmark_loops(self.check, series_study, feedback_study,
                              delta_grid_21)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stable=st.booleans(),
        feedthrough=st.booleans(),
    )
    def test_random_systems(self, seed, stable, feedthrough):
        self.check(random_system(seed, stable, feedthrough))

    def test_the_start_is_moved(self, feedback_study, delta_grid_21, monkeypatch):
        # from the least modal gain, the loops take more level-set steps
        # than the one certifying Hamiltonian each
        systems, _ = TestModalKernel.counting(monkeypatch)
        delta_sweep(feedback_study.loop_polynomial("coherent"), delta_grid_21)
        assert sum(systems) > len(delta_grid_21)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(2, 1, 1), (4, 2, 1), (5, 1, 3)])
    def test_defective_dynamics(self, seed, shape):
        # V has rank one; its pseudo-inverse still gives finite modal gains
        check_against_local_grid(jordan_system(seed, *shape), self.rel_tol)

    @pytest.mark.parametrize("seed", range(8))
    def test_raw_gaussian_basis(self, seed):
        ss = random_system(seed, feedthrough=seed % 2 == 1, cond=None)
        check_against_local_grid(ss, self.rel_tol)


def skewed_system(seed, decades, jordan):
    """Seeded stable system whose eigenvector matrix is far from unitary:
    A = T diag(poles) T^-1 with the singular values of T spread over
    ``decades`` decades, or with ``jordan`` a Jordan block perturbed by
    10**-decades (a larger cond(V) for fewer decades)."""
    rng = np.random.default_rng(seed)
    n, p, m = rng.integers(2, 7), rng.integers(1, 4), rng.integers(1, 4)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    poles = -rng.uniform(0.2, 3.0, n) + 1j * rng.uniform(-5.0, 5.0, n)
    if jordan:
        a = poles[0] * np.eye(n) + np.eye(n, k=1) + 10.0**-decades * draw(n, n)
        a -= max(np.linalg.eigvals(a).real.max() + 0.2, 0.0) * np.eye(n)
    else:
        U, W = (np.linalg.qr(draw(n, n))[0] for _ in range(2))
        T = U * np.logspace(0.0, decades, n) @ W
        a = T @ np.diag(poles) @ np.linalg.inv(T)
    return StateSpace(a, draw(n, m), draw(p, n), draw(p, m) * rng.integers(0, 2))


class TestModalKernel:
    """Where the eigenvector matrix V of a system has cond(V) <=
    MODAL_COND, every gain the level-set kernel takes for it comes from the
    modal form, and the Hamiltonian only certifies the peak; a system with a
    worse V takes its gains from the resolvent, whatever its stack holds."""

    rel_tol = 1e-6

    @staticmethod
    def counting(monkeypatch):
        """Record the stack size of each Hamiltonian eigen-solve and the
        frequency columns of each resolvent solve."""
        systems, columns = [], []
        level_eigenvalues = analysis._level_eigenvalues
        resolvent = analysis._responses

        def levels(A, B, C, D, gamma):
            systems.append(len(A))
            return level_eigenvalues(A, B, C, D, gamma)

        def solves(S, eigA, W):
            columns.append(W.size)
            return resolvent(S, eigA, W)

        monkeypatch.setattr(analysis, "_level_eigenvalues", levels)
        monkeypatch.setattr(analysis, "_responses", solves)
        return systems, columns

    def test_one_hamiltonian_per_benchmark_loop(
        self, series_study, feedback_study, delta_grid_21, monkeypatch
    ):
        # the stacks of fig4 and fig7: 84 loops, cond(V) <= 21 on each
        systems, columns = self.counting(monkeypatch)
        for study in (series_study, feedback_study):
            for name in study.channels:
                delta_sweep(study.loop_polynomial(name), delta_grid_21)
        assert systems == [21, 21, 21, 21]
        assert sum(columns) == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        decades=st.floats(0.0, 3.0),
        jordan=st.booleans(),
    )
    def test_modal_gains_match_the_resolvent(self, seed, decades, jordan):
        # Within 1e-9 of the peak gain, 1e-3 of the kernel's default
        # rel_tol; the largest deviation measured below MODAL_COND on 8400
        # seeded systems was 1.6e-10.
        ss = skewed_system(seed, decades + 1.0 if jordan else decades, jordan)
        A, B, C, D = stack([ss])
        eigA, V = np.linalg.eig(A)
        assume(np.linalg.cond(V)[0] <= analysis.MODAL_COND)
        W = np.concatenate([analysis.GRID, eigA[0].imag,
                            np.linspace(-6.0, 6.0, 241)])[None]
        exact = analysis._sigma_max(responses(A, B, C, D, eigA, W))
        modal = analysis._modal_gains(analysis._residues(B, C, V)[0], D, eigA, W)
        np.testing.assert_allclose(modal, exact, rtol=0, atol=1e-9 * exact.max())

    @pytest.mark.parametrize("seed", range(4))
    def test_a_jordan_block_takes_the_resolvent(self, seed, monkeypatch):
        systems = [random_system(seed, shape=(5, 1, 3)), jordan_system(seed, 5, 1, 3)]
        _, columns = self.counting(monkeypatch)
        analysis._level_set(*stack(systems[:1]), self.rel_tol, False)
        assert sum(columns) == 0
        norms, peaks, _ = analysis._level_set(*stack(systems), self.rel_tol, False)
        assert sum(columns) > 0
        for ss, norm, w in zip(systems, norms, peaks):
            g = frequency_response(ss, np.linspace(w - 0.05, w + 0.05, 20001))
            peak = analysis._sigma_max(g).max()
            assert norm == pytest.approx(peak, rel=self.rel_tol)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_reduction_per_level_set(self, seed, monkeypatch):
        # the resolvent's systems are reduced to Hessenberg form once for
        # the start and every step, with the bits of a reduction per call
        systems = [random_system(seed, shape=(5, 1, 3)), jordan_system(seed, 5, 1, 3),
                   jordan_system(seed + 1, 5, 1, 3)]
        A, B, C, D = stack(systems)
        reduce, calls = analysis._system_matrices, []

        def counting(*abcd):
            calls.append(len(abcd[0]))
            return reduce(*abcd)

        monkeypatch.setattr(analysis, "_system_matrices", counting)
        analysis._level_set(A[:1], B[:1], C[:1], D[:1], self.rel_tol, False)
        assert calls == []
        once = analysis._level_set(A, B, C, D, self.rel_tol, False)
        assert calls == [2]
        # the unreduced system matrix goes through, and each resolvent call
        # reduces its systems afresh, as the frozen reference does
        monkeypatch.setattr(analysis, "_system_matrices",
                            lambda A, B, C, D: np.block([[-A, B], [-C, D]]))
        monkeypatch.setattr(analysis, "_responses", lambda S, eigA, W: reference.responses(
            -S[:, :5, :5], S[:, :5, 5:], -S[:, 5:, :5], S[:, 5:, 5:], eigA, W))
        each = analysis._level_set(A, B, C, D, self.rel_tol, False)
        for got, want in zip(once, each):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("seed", range(20))
    def test_a_jordan_block_leaves_its_stack_mates_alone(self, seed):
        ss = random_system(seed, shape=(5, 1, 3))
        norms, peaks, _ = analysis._level_set(
            *stack([ss, jordan_system(seed, 5, 1, 3)]), self.rel_tol, False
        )
        assert (norms[0], peaks[0]) == hinf_norm(ss, self.rel_tol,
                                                 return_frequency=True)

    def test_a_failure_names_its_system_in_the_stack(self, monkeypatch):
        # the zoom takes modal gains of the second system alone; a pole hit
        # there names it by its index in the whole stack, not in the subset
        modal_gains = analysis._modal_gains

        def hit(R, D, eigA, W):
            if len(R) == 1:
                raise analysis._at(0, SingularAtFrequency("i*omega is a system pole"))
            return modal_gains(R, D, eigA, W)

        monkeypatch.setattr(analysis, "_modal_gains", hit)
        systems = [jordan_system(0, 5, 1, 3), random_system(0, shape=(5, 1, 3))]
        with pytest.raises(SingularAtFrequency) as info:
            analysis._level_set(*stack(systems), self.rel_tol, False)
        assert info.value.system == 1

    @pytest.mark.parametrize("cond", [3.0, 1e3])
    def test_random_system_has_the_eigenvector_condition_it_names(self, cond):
        for seed in range(20):
            V = np.linalg.eig(random_system(seed, cond=cond).A)[1]
            if len(V) > 1:
                assert np.linalg.cond(V) == pytest.approx(cond, rel=1e-6)


class TestHinfNorm:
    def test_first_order_lag(self):
        assert hinf_norm(lag()) == pytest.approx(1.0, rel=1e-5)

    def test_pure_gain(self):
        ss = StateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[3.0]]
        )
        assert hinf_norm(ss) == pytest.approx(3.0)

    def test_unstable_raises_by_default(self):
        ss = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(UnstableSystem, match="spectral abscissa 1 is not"):
            hinf_norm(ss)
        # the imaginary-axis peak gain is still well-defined
        assert hinf_norm(ss, allow_unstable=True) == pytest.approx(1.0, rel=1e-5)

    def test_agrees_with_dense_grid_on_seeded_system(self):
        rng = np.random.default_rng(23)
        n = 5
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a - (np.max(np.linalg.eigvals(a).real) + 0.3) * np.eye(n)
        b = rng.standard_normal((n, 2))
        c = rng.standard_normal((2, n))
        ss = StateSpace(a, b, c, np.zeros((2, 2)))
        norm = hinf_norm(ss)
        # the random system's peak falls between grid points; the dense grid
        # is a lower bound within its resolution
        assert norm == pytest.approx(grid_peak_gain(ss), rel=1e-3)
        assert norm >= grid_peak_gain(ss) * (1 - 1e-6)

    def test_peak_frequency_consistency(self, series_study):
        loop = series_study.closed_loop("classical", -1.0)
        norm, w = hinf_norm(loop, allow_unstable=True, return_frequency=True)
        gain = max_singular_value(frequency_response(loop, [w])[0])
        assert gain == pytest.approx(norm, rel=1e-5)


class TestDeltaSweep:
    def test_constant_under_zero_uncertainty(self, series_study):
        u0 = squeezer_uncertainty(2.0, 0.0)
        p = series_study.plant
        est = series_study.estimator("classical")
        builder = loop_polynomial(
            p.A, p.B, p.C, p.D, p.L, series_study.S, est, u0.coefficients()
        )
        res = delta_sweep(builder, [-1.0, 0.0, 1.0], label="nominal")
        assert res.norms[0] == pytest.approx(res.norms[1], rel=1e-6)
        assert res.norms[1] == pytest.approx(res.norms[2], rel=1e-6)

    def test_bookkeeping(self, series_study):
        res = delta_sweep(
            series_study.loop_polynomial("classical"), [-1.0, 0.0, 1.0],
            label="classical",
        )
        assert res.deltas == (-1.0, 0.0, 1.0)
        assert len(res.norms) == 3
        assert len(res.abscissa) == 3
        assert res.label == "classical"


class TestLevelSetFailures:
    def test_step_cap_raises_naming_the_level(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_LEVELS", 0)
        with pytest.raises(QreError, match="level"):
            hinf_norm(lag())

    def test_crossings_without_a_higher_gain_raise(self, monkeypatch):
        # an eigenvalue on the axis claims the level is crossed, but the gain
        # at every midpoint stays below the current bound
        monkeypatch.setattr(
            analysis,
            "_level_eigenvalues",
            lambda A, B, C, D, gamma: np.array([[5j, 6j]]),
        )
        with pytest.raises(QreError, match="level .* is crossed"):
            hinf_norm(lag())


class TestStackedKernel:
    """delta_sweep runs the level-set kernel once over the stack of all its
    loops, and hinf_norm runs it over a stack of one: each system's
    arithmetic is the same either way."""

    def test_sweep_matches_hinf_norm_on_benchmarks(
        self, series_study, feedback_study, delta_grid_21
    ):
        for study in (series_study, feedback_study):
            for name in study.channels:
                res = delta_sweep(study.loop_polynomial(name), delta_grid_21)
                loops = [study.closed_loop(name, d) for d in delta_grid_21]
                ref = [hinf_norm(loop, allow_unstable=True) for loop in loops]
                np.testing.assert_allclose(res.norms, ref, rtol=1e-12)
                assert res.abscissa == tuple(
                    loop.spectral_abscissa for loop in loops
                )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stable=st.lists(st.booleans(), min_size=1, max_size=6),
        feedthrough=st.booleans(),
        n=st.integers(1, 6),
        channel=st.sampled_from([(1, 1), (1, 3), (2, 1), (2, 3)]),
    )
    def test_sweep_matches_hinf_norm_on_random_stacks(
        self, seed, stable, feedthrough, n, channel
    ):
        systems = [
            random_system(seed + k, s, feedthrough, shape=(n,) + channel)
            for k, s in enumerate(stable)
        ]
        res = delta_sweep(lambda ds: stack([systems[int(d)] for d in ds]),
                          range(len(systems)))
        ref = [hinf_norm(ss, allow_unstable=True) for ss in systems]
        np.testing.assert_allclose(res.norms, ref, rtol=1e-12)

    @pytest.mark.parametrize(
        "shape",
        [(3, 5, 1, 4), (3, 5, 3, 1), (3, 5, 2, 3), (0, 5, 2, 3), (3, 0, 1, 3),
         (3, 0, 2, 3)],
    )
    def test_sigma_max_matches_svd(self, shape):
        rng = np.random.default_rng(7)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = analysis._sigma_max(g)
        assert got.shape == shape[:-2]
        np.testing.assert_allclose(
            got, np.linalg.svd(g, compute_uv=False)[..., 0], rtol=1e-14
        )


SCALES = [10.0**e for e in range(-16, 7, 2)]


def rescaled(stacks, c):
    """(A, B, C, D) -> (c A, sqrt(c) B, sqrt(c) C, D): G_c(i w) = G(i w / c),
    a rescaling of time that leaves every peak gain as it is."""
    A, B, C, D = stacks
    return c * A, np.sqrt(c) * B, np.sqrt(c) * C, D


class TestTimeRescale:
    """The kernel's gates are relative to the problem's scale, so its
    norms are invariant under a rescaling of time, within rel_tol (each
    lies within rel_tol / 2 of the one true peak)."""

    rel_tol = 1e-6

    def check(self, stacks, c):
        ref = analysis._level_set(*stacks, self.rel_tol, True)[0]
        got = analysis._level_set(*rescaled(stacks, c), self.rel_tol, True)[0]
        np.testing.assert_allclose(got, ref, rtol=self.rel_tol)

    @pytest.mark.parametrize("c", SCALES)
    @pytest.mark.parametrize("name", ["classical", "coherent"])
    @pytest.mark.parametrize("topology", ["series", "feedback"])
    def test_benchmark_stacks(self, request, delta_grid_21, topology, name, c):
        study = request.getfixturevalue(f"{topology}_study")
        self.check(study.loop_polynomial(name)(delta_grid_21), c)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stable=st.booleans(),
        feedthrough=st.booleans(),
        c=st.sampled_from(SCALES),
    )
    def test_random_systems(self, seed, stable, feedthrough, c):
        self.check(stack([random_system(seed, stable, feedthrough)]), c)


def first_order(pole, c=1.0):
    return StateSpace([[pole]], [[1.0]], [[c]], [[0.0]])


class TestSweepFailures:
    """A failed sweep keeps the class of its error and names the delta of
    the loop at fault."""

    def test_builder_failure(self):
        # the builder's own error propagates as raised; a loop polynomial
        # names the first delta outside the uncertainty window
        def builder(ds):
            raise DomainError("no loop here")

        with pytest.raises(DomainError, match=r"^no loop here$"):
            delta_sweep(builder, [0.0, 0.5, 1.0])
        loops = LoopPolynomial(
            (0, 1), np.array([[[-1.0]], [[0.5]]]), np.ones((2, 1, 1)), np.ones((1, 1))
        )
        with pytest.raises(DomainError, match=r"delta=1\.5 outside \[-1, 1\]"):
            delta_sweep(loops, [0.0, 1.5, -2.0])

    def test_unstable_loop(self):
        def builder(ds):
            return stack([first_order(d - 0.7) for d in ds])

        # no error: the peak gain on the axis, 1 / 0.3 at w = 0, and the
        # abscissa that marks the loop unstable
        res = delta_sweep(builder, [-1.0, 0.0, 1.0])
        assert res.norms[2] == pytest.approx(1 / 0.3, rel=1e-6)
        np.testing.assert_allclose(res.abscissa, [-1.7, -0.7, 0.3], rtol=1e-12)

    def test_pole_on_the_imaginary_axis(self):
        w0 = np.logspace(-3, 3, 50)[20]  # a frequency of the starting grid

        def loop(d):
            pole = 1j * w0 if d == 0.5 else -2.0
            return StateSpace(np.diag([-1.0, pole]), np.ones((2, 1)),
                              np.ones((1, 2)), [[0.0]])

        with pytest.raises(
            QreError, match=r"delta=0\.5: i\*omega = .* is a system pole"
        ) as info:
            delta_sweep(lambda ds: stack([loop(d) for d in ds]),
                        [0.0, 0.25, 0.5])
        assert isinstance(info.value, SingularAtFrequency)
        assert isinstance(info.value.__cause__, SingularAtFrequency)

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_LEVELS", 0)
        # the loop at delta = 0 has no gain, so it needs no level-set step
        with pytest.raises(
            QreError,
            match=r"delta=0\.5: level-set iteration did not converge in 0 steps",
        ):
            delta_sweep(lambda ds: stack([first_order(-1.0, c=d) for d in ds]),
                        [0.0, 0.5, 1.0])

    def test_crossings_without_a_higher_gain(self, monkeypatch):
        monkeypatch.setattr(
            analysis,
            "_level_eigenvalues",
            lambda A, B, C, D, gamma: np.tile([5j, 6j], (A.shape[0], 1)),
        )
        with pytest.raises(QreError, match=r"delta=0\.5: level .* is crossed"):
            delta_sweep(lambda ds: stack([first_order(-1.0, c=d) for d in ds]),
                        [0.0, 0.5, 1.0])

    def test_empty_deltas(self):
        res = delta_sweep(lambda ds: stack([lag()]), [], label="empty")
        assert res == SweepResult((), (), "empty", ())

    def test_stack_shorter_than_the_grid(self):
        # one stack holds loops of one shape; what a builder can still get
        # wrong is the number of loops
        with pytest.raises(ShapeMismatch, match="equal length"):
            delta_sweep(lambda ds: stack([lag()]), [0.0, 0.5])


def reference_loop(system, u, S, est, delta):
    """The closed loop at one delta from the per-delta factors
    dA = H1 F1 E, dB = H2 F2 G, dC = H3 F1 E."""
    F1 = np.diag([delta**e for e in u.f1_exponents])
    F2 = np.diag([delta**e for e in u.f2_exponents])
    dA, dB, dC = u.H1 @ F1 @ u.E, u.H2 @ F2 @ u.G, u.H3 @ F1 @ u.E
    dB = np.hstack([dB, np.zeros((dB.shape[0], system.B.shape[1] - dB.shape[1]))])
    n, k = system.A.shape[0], est.A_K.shape[0]
    A = np.block([[system.A + dA, np.zeros((n, k))],
                  [est.B_K @ S @ (system.C + dC), est.A_K]])
    B = np.vstack([system.B + dB, est.B_K @ S @ system.D])[:, : S.shape[0]]
    C = np.hstack([-system.L, est.C_K])
    return A, B, C, np.zeros((C.shape[0], B.shape[1]))


def random_estimator(seed, n, m):
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return SimpleNamespace(A_K=draw(n, n), B_K=draw(n, m), C_K=draw(1, n))


def relative_error(got, ref):
    return np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300)


exponents = st.integers(0, 3)
grid_points = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))


class TestLoopPolynomial:
    """The coefficient form of the closed loop against the per-delta
    formula, over realizable squeezers, both topologies and both channels,
    and uncertainty models of any exponent pattern and factor scale."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        feedback=st.booleans(), coherent=st.booleans(), kappa1=positive,
        kappa2=positive, chi=squeezing, L=estimand, mu=uncertainty,
        theta=angle,
        f1=st.lists(exponents, min_size=4, max_size=4),
        f2=st.lists(exponents, min_size=2, max_size=2),
        scales=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
        deltas=st.lists(grid_points, min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_matches_the_per_delta_formula(
        self, feedback, coherent, kappa1, kappa2, chi, L, mu, theta, f1, f2,
        scales, deltas, seed,
    ):
        if feedback:
            config = feedback_benchmark_config()
            config["plant"].update(beta=kappa1 + kappa2, kappa1=kappa1,
                                   kappa2=kappa2, chi=chi, L=L)
            config["controller"].update(beta_c=kappa1 + kappa2,
                                        kappa_c1=kappa1, kappa_c2=kappa2,
                                        chi_c=chi / 2)
        else:
            config = series_benchmark_config()
            config["plant"].update(beta=kappa1, kappa=kappa1, chi=chi, L=L)
            config["controller"].update(beta_c=kappa2, kappa_c=kappa2,
                                        chi_c=chi / 2)
        config.update(mu=mu, homodyne_angles_deg=[theta], strict_pr=True)
        study = build_study(config)
        # F1 and F2 are contractions, so a scale of either goes into the
        # factors it multiplies: H1 and H3 for F1, H2 for F2
        u = study.uncertainty
        pattern = dict(f1_exponents=f1, f2_exponents=f2, H1=scales[0] * u.H1,
                       H3=scales[0] * u.H3, H2=scales[1] * u.H2)
        # the channels are lifted from the replaced uncertainty
        study = dataclasses.replace(
            study, uncertainty=dataclasses.replace(u, **pattern)
        )
        name = "coherent" if coherent else "classical"
        system, u = study.channels[name]
        est = random_estimator(seed, system.A.shape[0], study.S.shape[0])
        stacks = study.loop_polynomial(name, est)(deltas)
        for k, d in enumerate(deltas):
            ref = reference_loop(system, u, study.S, est, d)
            for got, want in zip(stacks, ref):
                assert relative_error(got[k], want) <= 1e-12
            loop = study.closed_loop(name, d, estimator=est)
            for m, got in zip("ABCD", stacks):
                np.testing.assert_array_equal(getattr(loop, m), got[k])

    def test_empty_grid(self, feedback_study):
        for name in feedback_study.channels:
            res = delta_sweep(feedback_study.loop_polynomial(name), [], label=name)
            assert res == SweepResult((), (), name, ())
