import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import qcore

# Every value json.loads can return, including NaN/Infinity and integers
# beyond the float range.
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([10 ** 400, -10 ** 400]) | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=12)


@st.composite
def matrix_documents(draw):
    """A well-formed wire-format document, with one field or one entry
    replaced by an arbitrary JSON value in most draws."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    number = st.integers() | st.floats() | st.just(10 ** 400)
    pair = st.lists(number, min_size=2, max_size=2)
    doc = {"rows": rows, "cols": cols,
           "entries": draw(st.lists(pair, min_size=rows * cols,
                                    max_size=rows * cols))}
    field = draw(st.sampled_from([None, "rows", "cols", "entries", "entry"]))
    if field == "entry":
        doc["entries"][draw(st.integers(0, rows * cols - 1))] = draw(JSON_VALUES)
    elif field is not None:
        doc[field] = draw(JSON_VALUES)
    return doc


def random_hermitian(d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


class TestPureStateProjector:
    def test_basis_state(self):
        p = qcore.pure_state_projector([1.0, 0.0])
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-15)

    def test_uniform_superposition(self):
        s = np.array([1.0, 1.0]) / math.sqrt(2)
        p = qcore.pure_state_projector(s)
        assert np.allclose(p, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_random_is_rank_one_projector(self):
        for seed in range(5):
            s = qcore.haar_random_states(4, 1, seed)[0]
            p = qcore.pure_state_projector(s)
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert abs(np.trace(p) - 1.0) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            qcore.pure_state_projector([1.0, 1.0])


class TestTraceFidelity:
    def test_identical_states(self):
        p = qcore.pure_state_projector([1.0, 0.0])
        assert qcore.trace_fidelity(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        p = qcore.pure_state_projector([1.0, 0.0])
        t = qcore.pure_state_projector([0.0, 1.0])
        assert qcore.trace_fidelity(p, t) == pytest.approx(0.0, abs=1e-15)

    def test_half_overlap(self):
        zero = np.array([1.0, 0.0], dtype=complex)
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        expected = abs(np.vdot(zero, plus)) ** 2  # independent overlap route
        f = qcore.trace_fidelity(qcore.pure_state_projector(zero),
                                 qcore.pure_state_projector(plus))
        assert f == pytest.approx(expected, abs=1e-12)
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_exact_symmetry_for_hermitian(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_hermitian(5, rng)
            b = random_hermitian(5, rng)
            assert qcore.trace_fidelity(a, b) == qcore.trace_fidelity(b, a)

    def test_pure_states_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = qcore.pure_state_projector(qcore.haar_random_states(3, 1, rng)[0])
            t = qcore.pure_state_projector(qcore.haar_random_states(3, 1, rng)[0])
            f = qcore.trace_fidelity(p, t)
            assert -1e-12 <= f <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            qcore.trace_fidelity(np.eye(2), np.eye(3))


class TestHaarSampling:
    def test_dim_one_state(self):
        s = qcore.haar_random_states(1, 1, 9)[0]
        assert abs(abs(s[0]) - 1.0) < 1e-12

    def test_state_determinism(self):
        a = qcore.haar_random_states(4, 1, 1234)[0]
        b = qcore.haar_random_states(4, 1, 1234)[0]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim,count,seed", [(1, 1, 0), (2, 5, 1),
                                                (3, 200, 2), (9, 33, 12345)])
    def test_states_match_reference_formula(self, dim, count, seed):
        # certificates and partial-info reports depend on this exact stream
        rng = np.random.default_rng(seed)
        v = (rng.normal(size=(count, dim))
             + 1j * rng.normal(size=(count, dim)))
        expected = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert np.array_equal(qcore.haar_random_states(dim, count, seed),
                              expected)

    def test_row_slices_normalise_bit_identically(self):
        draw = np.random.default_rng(4).standard_normal((2, 1000, 3))
        whole = qcore.unit_states(draw)
        for lo, hi in ((0, 1), (0, 256), (300, 1000), (999, 1000)):
            part = qcore.unit_states(draw[:, lo:hi])
            assert np.array_equal(part.view(np.int64),
                                  whole[lo:hi].view(np.int64))

    def test_mean_projector_concentrates(self):
        states = qcore.haar_random_states(2, 10 ** 4, 0)
        mean = np.einsum("si,sj->ij", states, states.conj()) / states.shape[0]
        assert np.max(np.abs(mean - np.eye(2) / 2)) < 0.02

    def test_unitary_dim_one(self):
        u = qcore.haar_random_unitary(1, 3)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        for seed in range(10):
            u = qcore.haar_random_unitary(3, seed)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12

    def test_unitary_twirl_concentrates(self):
        pi = qcore.pure_state_projector([1.0, 0.0])
        rng = np.random.default_rng(8)
        acc = np.zeros((2, 2), dtype=complex)
        count = 10 ** 4
        for _ in range(count):
            u = qcore.haar_random_unitary(2, rng)
            acc += u @ pi @ u.conj().T
        assert np.max(np.abs(acc / count - np.eye(2) / 2)) < 0.02


class TestValidators:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_state_rejects_non_finite_norm(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            qcore.check_state([bad, 0.0])
        with pytest.raises(ValueError, match="not normalized"):
            qcore.check_state([bad, 0.0], tol=math.inf)

    def test_effect_rejects_oversized(self):
        with pytest.raises(ValueError, match="spectrum"):
            qcore.check_effect(2 * np.eye(2))

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            qcore.check_outcome_distribution([0.5, 0.4])

    def test_distribution_stack_checked_row_by_row(self):
        good = np.array([[0.25, 0.75], [1.0, 0.0]])
        assert np.array_equal(qcore.check_outcome_distribution(good), good)
        with pytest.raises(ValueError, match="out of range"):
            qcore.check_outcome_distribution([[0.5, 0.5], [1.1, -0.1]])
        with pytest.raises(ValueError, match="sum to 0.9"):
            qcore.check_outcome_distribution([[0.5, 0.5], [0.5, 0.4]])
        with pytest.raises(ValueError, match="1-D"):
            qcore.check_outcome_distribution(np.ones((1, 1, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_distribution_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            qcore.check_outcome_distribution([bad, 1.0])
        with pytest.raises(ValueError, match="out of range"):
            qcore.check_outcome_distribution([[0.5, 0.5], [bad, 1.0]])


class TestMatrixJson:
    def test_round_trip_matrix(self):
        rng = np.random.default_rng(15)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = qcore.matrix_from_json(qcore.matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_state_uses_single_column(self):
        s = qcore.haar_random_states(4, 1, 2)[0]
        obj = qcore.matrix_to_json(s)
        assert obj["cols"] == 1 and obj["rows"] == 4
        back = qcore.matrix_from_json(obj)
        assert back.shape == (4, 1)
        assert np.array_equal(back.ravel(), s)

    def test_rejects_nan(self):
        obj = {"rows": 1, "cols": 1, "entries": [[float("nan"), 0.0]]}
        with pytest.raises(ValueError, match="finite"):
            qcore.matrix_from_json(obj)

    def test_rejects_inf(self):
        obj = {"rows": 1, "cols": 1, "entries": [[0.0, float("inf")]]}
        with pytest.raises(ValueError, match="finite"):
            qcore.matrix_from_json(obj)

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError, match="entries"):
            qcore.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    def test_file_round_trip(self, tmp_path):
        m = np.array([[1.0 + 2.0j, 0.0], [0.5, -1.0j]])
        path = tmp_path / "op.json"
        qcore.save_matrix(path, m)
        with open(path) as fh:
            assert set(json.load(fh)) == {"rows", "cols", "entries"}
        assert np.array_equal(qcore.load_matrix(path), m)

    @pytest.mark.parametrize("obj", [
        {"rows": 1, "cols": 1, "entries": 5},
        {"rows": 1, "cols": 1, "entries": [[1, None]]},
        {"rows": math.inf, "cols": 1, "entries": [[1, 0]]},  # JSON 1e400
        {"rows": 1.5, "cols": 1, "entries": [[1, 0]]},
        {"rows": 1.0, "cols": 1, "entries": [[1, 0]]},
        {"rows": "1", "cols": 1, "entries": [[1, 0]]},
        {"rows": True, "cols": 1, "entries": [[1, 0]]},
        {"rows": 1, "cols": 1, "entries": [["1", 0]]},
        {"rows": 1, "cols": 1, "entries": [[False, 0]]},
        {"rows": 1, "cols": 1, "entries": [[10 ** 400, 0]]},
        {"rows": 2, "cols": 1, "entries": "ab"},
        {"rows": 1, "cols": 1},
    ])
    def test_rejects_non_json_types(self, obj):
        with pytest.raises(ValueError):
            qcore.matrix_from_json(obj)

    def test_rejects_more_entries_than_the_limit(self):
        wide = np.zeros((1, qcore.MAX_MATRIX_ENTRIES + 1))
        with pytest.raises(ValueError, match="limit"):
            qcore.matrix_to_json(wide)
        # the entry count is refused before any entry is read
        with pytest.raises(ValueError, match="limit"):
            qcore.matrix_from_json({"rows": 1, "cols": wide.size, "entries": None})
        square = np.eye(256, dtype=complex)
        assert np.array_equal(
            qcore.matrix_from_json(qcore.matrix_to_json(square)), square)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(JSON_VALUES | matrix_documents() | st.fixed_dictionaries(
        {"rows": st.integers(1, 2 ** 40), "cols": st.integers(1, 2 ** 40),
         "entries": JSON_VALUES}))
    def test_any_json_value_parses_or_raises_value_error(self, obj):
        try:
            a = qcore.matrix_from_json(obj)
        except ValueError:
            return
        assert a.shape == (obj["rows"], obj["cols"])
        assert np.all(np.isfinite(a))
