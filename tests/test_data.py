import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelratio import GaussianPairSpec, InputError, LabeledDataset, load_two_csv, oracle, sample_pair
from kernelratio.data import dataset_sha256, log_true_ratio, write_text


def test_default_pair(pair):
    assert pair.mu_p == 4.0
    assert pair.sigma_p == pytest.approx(2.0**-0.5)
    assert pair.mu_q == 2.0
    assert pair.sigma_q == pytest.approx(5.0**0.5)


@pytest.mark.parametrize("kwargs", [{"sigma_p": 0.0}, {"sigma_q": -1.0}])
def test_pair_requires_positive_scales(kwargs):
    with pytest.raises(InputError):
        GaussianPairSpec(**kwargs)


@pytest.mark.parametrize("value, shown", [("x", "'x'"), (10**400, "1" + "0" * 400)], ids=["string", "huge int"])
def test_pair_requires_finite_numbers(value, shown):
    with pytest.raises(InputError, match=rf"^mu_p must be a finite number, got {shown}$"):
        GaussianPairSpec(mu_p=value)


def test_write_text_turns_an_os_error_into_an_input_error_naming_the_path(tmp_path):
    path = tmp_path / "missing" / "out.txt"
    with pytest.raises(InputError, match=rf"^cannot write {re.escape(str(path))}: "):
        write_text(str(path), ["text"])
    assert not path.parent.exists()


def test_the_pair_check_and_the_oracle_share_one_log_ratio():
    assert oracle.log_true_ratio is log_true_ratio


def test_an_overflowing_pair_is_not_blamed_on_distance():
    # The two components are identical; only sigma**2 overflows.
    with pytest.raises(InputError) as info:
        GaussianPairSpec(mu_p=0.0, sigma_p=1e200, mu_q=0.0, sigma_q=1e200)
    message = str(info.value)
    assert message.startswith("the log ratio of P to Q is not finite at x=-8e+200, ")
    assert message.endswith("sigma_q=1e+200 put it out of the float range") and "far apart" not in message


_MAGNITUDES = st.integers(-200, 200).map(lambda k: 10.0**k)


@given(mu_p=_MAGNITUDES, sigma_p=_MAGNITUDES, mu_q=st.sampled_from([0.0, 2.0, -1e100]), sigma_q=_MAGNITUDES)
def test_an_accepted_pair_has_a_finite_log_ratio_across_its_span(mu_p, sigma_p, mu_q, sigma_q):
    try:
        pair = GaussianPairSpec(mu_p=mu_p, sigma_p=sigma_p, mu_q=mu_q, sigma_q=sigma_q)
    except InputError as exc:
        assert "is not finite at x=" in str(exc)
        return
    lo, hi = pair.span()
    assert np.all(np.isfinite(log_true_ratio(pair, np.linspace(lo, hi, 101))))


class TestSamplePair:
    def test_q_only_dataset(self, pair):
        ds = sample_pair(pair, 0, 5, seed=3)
        assert ds.m == 0 and ds.n == 5
        assert np.all(ds.ys == -1)

    def test_block_order_is_p_then_q(self, pair):
        ds = sample_pair(pair, 3, 4, seed=9)
        assert np.all(ds.ys[:3] == 1)
        assert np.all(ds.ys[3:] == -1)

    def test_seeded_sampling_is_reproducible(self, pair):
        a = sample_pair(pair, 3, 3, seed=11)
        b = sample_pair(pair, 3, 3, seed=11)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)
        assert dataset_sha256(a) == dataset_sha256(b)

    def test_different_seed_changes_data(self, pair):
        a = sample_pair(pair, 3, 3, seed=11)
        b = sample_pair(pair, 3, 3, seed=12)
        assert dataset_sha256(a) != dataset_sha256(b)

    def test_large_sample_mean_near_p_mean(self, pair):
        m = 100_000
        ds = sample_pair(pair, m, 1, seed=0)
        p_mean = float(ds.xs[: ds.m].mean())
        assert abs(p_mean - pair.mu_p) <= 3.0 * pair.sigma_p / np.sqrt(m)

    def test_needs_at_least_one_q_sample(self, pair):
        with pytest.raises(InputError):
            sample_pair(pair, 3, 0, seed=0)

    def test_negative_seed_is_an_input_error(self, pair):
        with pytest.raises(InputError, match="seed must be nonnegative"):
            sample_pair(pair, 3, 3, seed=-1)


class TestDatasetInvariants:
    @given(
        labels=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=30).filter(lambda ys: -1 in ys),
        dim=st.integers(1, 3),
    )
    def test_counts_are_read_off_the_labels(self, labels, dim):
        xs = np.arange(len(labels) * dim, dtype=np.float64).reshape(len(labels), dim)
        ds = LabeledDataset(xs=xs, ys=np.array(labels))
        assert ds.m == labels.count(1)
        assert ds.n == labels.count(-1)
        assert ds.total == len(labels)

    @given(m=st.integers(0, 10), n=st.integers(1, 10), dim=st.integers(1, 3))
    def test_blocks_give_their_row_counts(self, m, n, dim):
        ds = LabeledDataset.from_blocks(np.ones((m, dim)), np.zeros((n, dim)))
        assert (ds.m, ds.n, ds.total) == (m, n, m + n)

    @pytest.mark.parametrize("ys", [[1, 1], []])
    def test_needs_a_q_label(self, ys):
        with pytest.raises(InputError, match=r"at least one Q sample \(label -1\)"):
            LabeledDataset(xs=np.zeros((len(ys), 1)), ys=np.array(ys, dtype=np.int64))

    def test_labels_must_be_plus_minus_one(self):
        with pytest.raises(InputError):
            LabeledDataset(xs=np.zeros((2, 1)), ys=np.array([1, 0]))

    @pytest.mark.parametrize(
        "make, message",
        [
            # Labels are checked before the cast to integers, which would read 1.7 as 1.
            (lambda: LabeledDataset(np.zeros((2, 1)), np.array([1.7, -1.2])), r"labels must take values -1 or \+1"),
            (lambda: LabeledDataset(np.zeros((2, 1)), np.array([np.nan, -1.0])), r"labels must take values -1 or \+1"),
            (lambda: LabeledDataset(np.zeros((3, 1)), np.array([1, -1])), "xs/ys length mismatch: 3 vs 2"),
            (lambda: LabeledDataset.from_blocks(np.zeros((2, 2)), np.zeros((2, 1))), "P has d=2, Q has d=1"),
        ],
        ids=["fractional-labels", "nan-label", "length-mismatch", "block-dimensions"],
    )
    def test_malformed_datasets_are_rejected(self, make, message):
        with pytest.raises(InputError, match=message):
            make()

    def test_p_points_without_coordinates_are_rejected_not_dropped(self):
        with pytest.raises(InputError, match=r"points need at least one coordinate, got shape \(3, 0\)"):
            LabeledDataset.from_blocks(np.empty((3, 0)), np.empty((2, 0)))

    def test_float_labels_of_plus_minus_one_are_read_as_integers(self):
        ds = LabeledDataset(np.zeros((2, 1)), np.array([1.0, -1.0]))
        assert ds.ys.dtype == np.int64 and ds.ys.tolist() == [1, -1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_points_must_be_finite(self, bad):
        with pytest.raises(InputError, match="finite"):
            LabeledDataset(xs=np.array([[0.0], [bad]]), ys=np.array([1, -1]))

    def test_total(self, pair):
        ds = sample_pair(pair, 2, 3, seed=1)
        assert ds.total == 5


class TestCsvLoading:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_row_counts(self, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        self._write(p, ["x_1", "1.5", "2.5"])
        self._write(q, ["x_1", "0.1", "0.2", "0.3"])
        ds = load_two_csv(str(p), str(q))
        assert ds.m == 2 and ds.n == 3
        assert ds.xs[0, 0] == 1.5

    def test_two_dimensional_header(self, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        self._write(p, ["x_1,x_2", "1,2"])
        self._write(q, ["x_1,x_2", "3,4", "5,6"])
        ds = load_two_csv(str(p), str(q))
        assert ds.xs.shape == (3, 2)

    def test_non_numeric_cell_names_file_and_line(self, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        self._write(p, ["x_1", "1.0"])
        self._write(q, ["x_1", "0.1", "0.2", "oops"])
        with pytest.raises(InputError, match=r"line 4"):
            load_two_csv(str(p), str(q))

    def test_line_numbers_count_physical_lines(self, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        self._write(p, ["x_1", '"1', '"', "nan"])  # a quoted cell spans lines 2-3
        self._write(q, ["x_1", "0.1"])
        with pytest.raises(InputError, match=r"line 4"):
            load_two_csv(str(p), str(q))

    def test_missing_file(self, tmp_path):
        p = tmp_path / "p.csv"
        self._write(p, ["x_1", "1.0"])
        with pytest.raises(InputError, match="q.csv"):
            load_two_csv(str(p), str(tmp_path / "q.csv"))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        self._write(p, ["value", "1.0"])
        self._write(q, ["x_1", "1.0"])
        with pytest.raises(InputError, match="header"):
            load_two_csv(str(p), str(q))

    def test_dimension_mismatch_between_files(self, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        self._write(p, ["x_1,x_2", "1,2"])
        self._write(q, ["x_1", "1.0"])
        with pytest.raises(InputError, match="dimension"):
            load_two_csv(str(p), str(q))

    def test_an_empty_p_file_must_still_match_q_in_dimension(self, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        self._write(q, ["x_1,x_2,x_3", "1,2,3"])
        self._write(p, ["x_1,x_2"])
        with pytest.raises(InputError, match=r"^dimension mismatch: .*p\.csv has d=2, .*q\.csv has d=3$"):
            load_two_csv(str(p), str(q))
        self._write(p, ["x_1,x_2,x_3"])
        ds = load_two_csv(str(p), str(q))
        assert ds.m == 0 and ds.xs.shape == (1, 3)

    def test_a_cell_over_the_csv_field_limit_names_its_line(self, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        self._write(p, ["x_1", "1" * 200_000])
        self._write(q, ["x_1", "0.1"])
        with pytest.raises(InputError, match=r"p\.csv: line 2: field larger than field limit \(131072\)$"):
            load_two_csv(str(p), str(q))
        self._write(p, ["x_1" + "1" * 200_000])  # in the header
        with pytest.raises(InputError, match=r"p\.csv: line 1: field larger than field limit"):
            load_two_csv(str(p), str(q))

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start the file with EF BB BF.
        q = tmp_path / "q.csv"
        self._write(q, ["x_1,x_2", "3,4", "5,6"])
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        self._write(plain, ["x_1,x_2", "1,2", "-0.5,7"])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = dataset_sha256(load_two_csv(str(plain), str(q)))
        assert dataset_sha256(load_two_csv(str(marked), str(q))) == expected

    def test_non_utf8_bytes_after_a_byte_order_mark_name_their_line(self, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        p.write_bytes(b"\xef\xbb\xbfx_1\n1.0\n\xff\n2.0\n")
        self._write(q, ["x_1", "0.1"])
        with pytest.raises(InputError, match=r"p\.csv: line 3: not valid UTF-8 text$"):
            load_two_csv(str(p), str(q))

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        self._write(p, ["x_1,x_2", "1,2", "3"])
        self._write(q, ["x_1,x_2", "1,2"])
        with pytest.raises(InputError, match="line 3"):
            load_two_csv(str(p), str(q))


_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", "Infinity", "1e999", "abc", " 1", '"2"', '"3']),
    st.text(max_size=4),
)


@st.composite
def _csv_files(draw):
    """Raw bytes, or a valid d-column file with maybe one line replaced."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=40))
    d = draw(st.integers(1, 2))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    lines = [",".join(f"x_{i + 1}" for i in range(d))]
    for _ in range(draw(st.integers(0, 4))):
        lines.append(",".join(draw(st.lists(finite, min_size=d, max_size=d))))
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = ",".join(draw(st.lists(_CELLS, max_size=3)))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode("utf-8")


@given(p_bytes=_csv_files(), q_bytes=_csv_files())
def test_fuzzed_csv_files_load_finite_or_raise_input_error(p_bytes, q_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "p.csv"), os.path.join(tmp, "q.csv")]
        for path, content in zip(paths, (p_bytes, q_bytes)):
            with open(path, "wb") as fh:
                fh.write(content)
        try:
            dataset = load_two_csv(*paths)
        except InputError:
            return
    assert np.all(np.isfinite(dataset.xs))
