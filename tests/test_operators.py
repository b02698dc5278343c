import numpy as np
import pytest

from quiverrep import (ValidationError, analyze, bilateral_shift,
                       decompose, diagonal, end,
                       end_recursion_check, example_reps, hrr_max_truncation,
                       hrr_model, kronecker_rep, perturbation_model, rank_one,
                       shift)
from quiverrep.intertwiner import hom_scale
from quiverrep.operators import (hrr_log_w, hrr_weight_logs,
                                 perturbation_structure_residual)

from helpers import bilateral_index, cross_model_hom, relatively_prime
from oracles import (bilateral_free_parameter_count, exact_end_dim,
                     numpy_hom_dim)


# -- basic constructions -----------------------------------------------------

def test_shift_is_subdiagonal():
    s = shift(3)
    assert np.allclose(s, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_bilateral_shift_shape_and_index():
    u = bilateral_shift(2)
    assert u.shape == (5, 5)


def test_rank_one_convention_first_row():
    w = np.array([1.0, 2.0, 3.0])
    theta = rank_one(np.eye(3)[:, 0], w.conj())
    assert np.allclose(theta[0], [1, 2, 3])
    assert np.allclose(theta[1:], 0)


def test_shift_times_diagonal_subdiagonal():
    m = shift(2) @ diagonal([5.0, 7.0])
    assert np.allclose(m, [[0, 0], [5, 0]])


def test_builders_validate():
    with pytest.raises(ValidationError):
        shift(0)
    with pytest.raises(ValidationError):
        diagonal(np.eye(2))
    with pytest.raises(ValidationError):
        rank_one(np.eye(2), np.ones(2))


# -- rank-one-perturbed weighted shift model ----------------------------------

def test_perturbation_matrix_layout():
    lam = np.array([1.0, 2.0, 3.0])
    w = np.array([4.0, 5.0, 6.0])
    rep = perturbation_model(3, lam, w)
    t = rep.maps["a2"]
    assert np.allclose(t[0], w)          # first row carries the rank-one part
    assert np.allclose(np.diag(t, -1), lam[:2])  # weighted-shift subdiagonal
    assert np.allclose(rep.maps["a1"], shift(3))


def _stray(n, t):
    """The largest stray coordinate of one End element (phi, psi), as documented."""
    phi, psi = t["1"], t["2"]
    return max(np.abs(psi[0, 1:]).max(), np.abs(psi[1:, 0]).max(),
               np.abs(phi[:n - 1] * (1 - np.eye(n)[:n - 1])).max())


@pytest.mark.parametrize("n", range(2, 9))
def test_perturbation_end_dimension(n):
    rep = perturbation_model(n)
    basis = end(rep)
    assert basis.dimension == n
    tau = 1e-8 * max(hom_scale(rep, rep), 1.0)
    assert perturbation_structure_residual(n, basis) <= tau
    # the stacked reading is the per-element one, also on a basis far from the structure
    for b in (basis, end(kronecker_rep(np.eye(n), np.eye(n)))):
        assert perturbation_structure_residual(n, b) == max(_stray(n, t) for t in b)


@pytest.mark.parametrize("n", [3, 4])
def test_perturbation_end_dimension_oracle(n):
    assert exact_end_dim(perturbation_model(n)) == n


def test_perturbation_structure_random_weights():
    rng = np.random.default_rng(23)
    for n in (3, 5):
        lam = np.exp(1j * np.linspace(0.1, 1.9, n)) * (1 + rng.uniform(size=n))
        w = rng.uniform(0.5, 1.5, size=n) + 1j * rng.uniform(0.1, 0.9, size=n)
        rep = perturbation_model(n, lam, w)
        basis = end(rep)
        assert basis.dimension == n
        tau = 1e-8 * max(hom_scale(rep, rep), 1.0)
        assert perturbation_structure_residual(n, basis) <= tau


def test_perturbation_degenerate_single_point():
    rep = perturbation_model(1)
    assert rep.maps["a1"].shape == (1, 1) and np.all(rep.maps["a1"] == 0)
    assert end(rep).dimension == 1


def test_perturbation_validation():
    with pytest.raises(ValidationError):
        perturbation_model(3, np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        perturbation_model(3, np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]))


def test_perturbation_never_reported_transitive_beyond_dim_one():
    for n in (2, 3, 4):
        assert not analyze(perturbation_model(n)).transitive


def test_perturbation_not_isomorphic_to_plain_weighted_shift():
    # the End dimension is an isomorphism invariant and separates the
    # rank-one-perturbed model from the unperturbed weighted-shift pair
    from quiverrep import are_isomorphic, kronecker_rep
    from quiverrep.operators import default_perturbation_weights
    n = 4
    perturbed = perturbation_model(n)
    lam, _ = default_perturbation_weights(n)
    plain = kronecker_rep(shift(n), shift(n) @ diagonal(lam))
    assert end(perturbed).dimension != end(plain).dimension
    assert are_isomorphic(perturbed, plain).verdict != "yes"


# -- bilateral double-exponential model ---------------------------------------

def test_hrr_admissibility_window():
    assert hrr_max_truncation(1.1) == 30
    rep = hrr_model(20, 1.1)
    assert rep.dims == {"1": 41, "2": 41}
    assert np.min(np.abs(np.diag(rep.maps["a1"]))) >= 1e-8
    with pytest.raises(ValidationError, match="30"):
        hrr_model(31, 1.1)
    with pytest.raises(ValidationError):
        hrr_model(3, 0.9)


def test_hrr_weight_log_pattern():
    log_a, log_b = hrr_weight_logs(3, 1.5)
    # indices -3..3; even positive indices weighted in a, odd in b
    assert log_a[bilateral_index(2, 3)] == -1.5 ** 2
    assert log_a[bilateral_index(1, 3)] == 0.0
    assert log_b[bilateral_index(1, 3)] == -1.5
    assert log_b[bilateral_index(3, 3)] == -1.5 ** 3
    assert np.all(log_a[: bilateral_index(1, 3)] == 0)
    logw = hrr_log_w(3, 1.5)
    expected = [(-1.5) ** m if m >= 1 else 0.0 for m in range(-3, 4)]
    assert np.allclose(logw, expected)


@pytest.mark.parametrize("lam,n", [(1.05, 4), (1.05, 6), (1.1, 4), (1.1, 6)])
def test_hrr_end_recursion_checks(lam, n):
    rep = hrr_model(n, lam)
    report = end_recursion_check(rep, lam)
    assert report.dim_end == bilateral_free_parameter_count(n)
    assert report.all_passed
    assert report.pass_rate == 1.0
    # non-closed-range surrogate: the singular values of the diagonal arrow
    # are the weights, so min/max equals the smallest even-index weight
    n_even_max = n if n % 2 == 0 else n - 1
    assert np.isclose(report.range_ratio, np.exp(-lam ** n_even_max))


def _element_by_element_recursion_check(rep, lam, basis):
    """Each End element's three residuals of end_recursion_check, one element at a time."""
    n = (rep.dims["1"] - 1) // 2
    log_a, _ = hrr_weight_logs(n, lam)
    log_w = hrr_log_w(n, lam)
    ratio = np.exp(log_w[:2 * n, None] - log_w[None, :2 * n])
    amp = np.exp(log_a[None, :] - log_a[:, None])
    out = []
    for t in basis:
        t1, t2 = t["1"], t["2"]
        diag = np.diag(t2)
        diag_res = float(np.max(np.abs(diag - diag.mean())))
        rec_res = float(np.max(np.abs(t2[1:, 1:] - ratio * t2[:-1, :-1]), initial=0.0))
        first_res = float(np.max(np.abs(t1 - amp * t2)))
        out.append((diag_res, rec_res, first_res))
    return out


@pytest.mark.parametrize("lam", [1.05, 1.1, 1.5, 2.0])
def test_hrr_end_recursion_check_is_the_element_by_element_check(lam):
    # the stacked residuals are the per-element ones, to the last bit
    for n in range(2, min(8, hrr_max_truncation(lam)) + 1):
        rep = hrr_model(n, lam)
        basis = end(rep)
        report = end_recursion_check(rep, lam, basis=basis)
        expected = _element_by_element_recursion_check(rep, lam, basis)
        assert len(report.elements) == len(expected) == basis.dimension
        for check, residuals in zip(report.elements, expected):
            flags = tuple(r <= report.tolerance for r in residuals)
            assert (check.diagonal_constant, check.recursion,
                    check.first_map_consistent) == flags
            assert check.max_residual == max(residuals)


def test_hrr_numpy_cross_check_small():
    rep = hrr_model(2, 1.1)
    assert numpy_hom_dim(rep, rep) == bilateral_free_parameter_count(2) == 5


def test_hrr_identity_passes_trivially():
    rep = hrr_model(3, 1.2)
    report = end_recursion_check(rep, 1.2)
    assert report.dim_end >= 1 and report.all_passed


def test_hrr_recursion_check_rejects_foreign_rep():
    rep = hrr_model(3, 1.2)
    with pytest.raises(ValidationError):
        end_recursion_check(rep, 1.3)
    with pytest.raises(ValidationError):
        end_recursion_check(example_reps("ex9", 7), 1.2)


def test_cross_model_hom_same_base_contains_identity():
    report = cross_model_hom(1.1, 1.1, 3)
    assert report.dimension >= 1


@pytest.mark.parametrize("n", [4, 6, 8])
def test_cross_model_hom_pinned_dims(n):
    report = cross_model_hom(1.1, 1.2, n)
    assert report.dimension == bilateral_free_parameter_count(n)
    assert report.recursion_passed


def test_cross_model_hom_numpy_cross_check():
    a = hrr_model(2, 1.05)
    b = hrr_model(2, 1.1)
    assert numpy_hom_dim(a, b) == 5
    assert cross_model_hom(1.05, 1.1, 2).dimension == 5


# -- named example truncations -------------------------------------------------

def test_ex3_simple_and_transitive():
    for n in (2, 3, 4):
        rep = example_reps("ex3", n)
        result = analyze(rep)
        assert result.simple
        assert result.transitive


def test_ex3_generated_algebra_reaches_full_matrix_algebra():
    rep = example_reps("ex3", 3)
    assert analyze(rep).simplicity.algebra_dim == 9


@pytest.mark.parametrize("n", [4, 6])
def test_ex9_even_split(n):
    leaves = decompose(example_reps("ex9", n)).leaf_reps()
    assert sorted(tuple(l.dims.values()) for l in leaves) == [(n // 2, n // 2)] * 2


def test_ex8_indecomposable_not_transitive():
    rep = example_reps("ex8", 4, 0.5)
    result = analyze(rep)
    assert result.indecomposable
    assert not result.transitive
    assert end(rep).dimension == 4


def test_ex8_star_variant():
    rep = example_reps("ex8*", 3, 0.5)
    assert end(rep).dimension == 3
    rep2 = example_reps("ex8s", 3, 0.5)
    assert np.allclose(rep.maps["a2"], rep2.maps["a2"])


def test_ex8_pairs_relatively_prime():
    a = example_reps("ex8", 4, 0.0)
    b = example_reps("ex8", 4, 2.0)
    assert relatively_prime(a, b)


def test_ex2_indecomposable():
    assert analyze(example_reps("ex2", 4)).indecomposable


def test_ex4_transitive_but_not_simple_under_literal_definition():
    rep = example_reps("ex4", 3)
    result = analyze(rep)
    assert result.transitive
    # (0, H_2) is always a subrepresentation of a Kronecker-type
    # representation, so the literal definition rules out simplicity
    assert not result.simple


def test_example_reps_validation():
    with pytest.raises(ValidationError):
        example_reps("ex5", 3)
    with pytest.raises(ValidationError):
        example_reps("ex3", 0)
