"""Synthetic two-sample generators, CSV ingestion and strict JSON output.

All estimators in this package consume a pooled two-sample dataset: draws
from the numerator distribution P labeled +1 and draws from the
denominator distribution Q labeled -1.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InputError
from .kernel import as_points, check_point_count


@dataclass(frozen=True)
class GaussianPairSpec:
    """Means and standard deviations of the 1-d Gaussians P and Q."""

    mu_p: float = 4.0
    sigma_p: float = 2.0**-0.5
    mu_q: float = 2.0
    sigma_q: float = 5.0**0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                finite = math.isfinite(value)
            except (TypeError, OverflowError):
                finite = False
            if not finite:
                raise InputError(f"{f.name} must be a finite number, got {value!r}")
        if not (self.sigma_p > 0.0 and self.sigma_q > 0.0):
            raise InputError("standard deviations must be positive")
        # The oracle integrates over span(); its log ratio must be finite there.
        for x in self.span():
            try:
                with np.errstate(all="ignore"):
                    finite = math.isfinite(log_true_ratio(self, x))
            except (ValueError, OverflowError):  # sigma_q / sigma_p or a sigma**2 left the float range
                finite = False
            if not finite:
                raise InputError(
                    f"the log ratio of P to Q is not finite at x={x!r}, an end of the 8-sigma interval; "
                    f"mu_p={self.mu_p!r}, sigma_p={self.sigma_p!r}, mu_q={self.mu_q!r} "
                    f"and sigma_q={self.sigma_q!r} put it out of the float range"
                )

    def span(self) -> tuple[float, float]:
        """Smallest interval holding both components to n_sigma = 8 standard deviations."""
        n_sigma = 8.0
        lo = min(self.mu_p - n_sigma * self.sigma_p, self.mu_q - n_sigma * self.sigma_q)
        hi = max(self.mu_p + n_sigma * self.sigma_p, self.mu_q + n_sigma * self.sigma_q)
        return lo, hi


def log_true_ratio(pair: GaussianPairSpec, x):
    x = np.asarray(x, dtype=np.float64)
    return (
        math.log(pair.sigma_q / pair.sigma_p)
        - (x - pair.mu_p) ** 2 / (2.0 * pair.sigma_p**2)
        + (x - pair.mu_q) ** 2 / (2.0 * pair.sigma_q**2)
    )


#: Well-separated narrow P over a wide Q; a standard covariate-shift
#: benchmark pair and the package's zero-configuration default.
DEFAULT_PAIR = GaussianPairSpec()


@dataclass(frozen=True)
class LabeledDataset:
    """Pooled samples labeled +1 (from P) or -1 (from Q); m and n count the two labels."""

    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)
    m: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        xs = as_points(self.xs)
        ys = np.asarray(self.ys).reshape(-1)
        if xs.shape[0] != ys.shape[0]:
            raise InputError(f"xs/ys length mismatch: {xs.shape[0]} vs {ys.shape[0]}")
        if not np.all(np.isfinite(xs)):
            raise InputError("sample points must be finite")
        # Checked before the cast to integers, which would truncate 1.7 to 1.
        if not np.all(np.isin(ys, (-1, 1))):
            raise InputError("labels must take values -1 or +1 only")
        ys = ys.astype(np.int64, copy=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        m = int(np.count_nonzero(ys == 1))
        if m == ys.shape[0]:
            raise InputError("need at least one Q sample (label -1)")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", ys.shape[0] - m)

    @property
    def total(self) -> int:
        return self.m + self.n

    @classmethod
    def from_blocks(cls, xp, xq) -> "LabeledDataset":
        """Pool a P-block and a Q-block, P first."""
        xp = as_points(xp)
        xq = as_points(xq)
        if not xp.shape[0]:
            xp = np.empty((0, xq.shape[1]))
        elif xp.shape[1] != xq.shape[1]:
            raise InputError(f"dimension mismatch: P has d={xp.shape[1]}, Q has d={xq.shape[1]}")
        xs = np.vstack([xp, xq])
        ys = np.concatenate([np.ones(xp.shape[0], dtype=np.int64), -np.ones(xq.shape[0], dtype=np.int64)])
        return cls(xs=xs, ys=ys)


def sample_pair(spec: GaussianPairSpec, m: int, n: int, seed: int) -> LabeledDataset:
    """Draw m points from P and n from Q, P-block first, fixed by the seed.

    Uses numpy's PCG64 generator; variates are reproducible bit-exactly
    across runs on the same build.
    """
    if m < 0 or n < 1:
        raise InputError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    check_point_count(m + n)
    rng = np.random.default_rng(int(seed))
    xp = rng.normal(spec.mu_p, spec.sigma_p, size=m)
    xq = rng.normal(spec.mu_q, spec.sigma_q, size=n)
    return LabeledDataset.from_blocks(xp.reshape(-1, 1), xq.reshape(-1, 1))


def _records(reader, path: str):
    """The records of a csv.reader; its csv.Error, such as a cell over the size limit, becomes an InputError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_csv(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    try:
        # utf-8-sig drops a leading byte-order mark, as spreadsheet exports write.
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object and exc.start leave out any byte-order mark.
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: line {lineno}: not valid UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    records = _records(reader, path)
    header = [h.strip() for h in next(records, [])]
    if not header:
        raise InputError(f"{path}: line 1: expected header x_1,...,x_d")
    expected = [f"x_{i + 1}" for i in range(len(header))]
    if header != expected:
        # A quoted field can swallow line breaks; repr's escapes keep the message on one line.
        got = "".join(c if c.isprintable() else repr(c)[1:-1] for c in ",".join(header))
        raise InputError(f"{path}: header must be {','.join(expected)}, got {got}")
    d = len(header)
    rows = []
    for row in records:
        if not row:
            continue
        lineno = reader.line_num  # the record's last physical line
        if len(row) != d:
            raise InputError(f"{path}: line {lineno}: expected {d} columns, got {len(row)}")
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise InputError(f"{path}: line {lineno}: non-numeric cell in {row}") from None
        if not all(map(math.isfinite, values)):
            raise InputError(f"{path}: line {lineno}: non-finite cell in {row}")
        rows.append(values)
    return np.asarray(rows, dtype=np.float64).reshape(-1, d)


def load_two_csv(path_p: str, path_q: str) -> LabeledDataset:
    """Load P-samples and Q-samples from two CSV files with header x_1,...,x_d."""
    xp = _read_csv(path_p)
    xq = _read_csv(path_q)
    if xq.shape[0] < 1:
        raise InputError(f"{path_q}: needs at least one sample row")
    if xp.shape[1] != xq.shape[1]:
        raise InputError(
            f"dimension mismatch: {path_p} has d={xp.shape[1]}, {path_q} has d={xq.shape[1]}"
        )
    return LabeledDataset.from_blocks(xp, xq)


def dataset_sha256(dataset: LabeledDataset) -> str:
    """Content hash of the pooled samples, recorded in model files."""
    digest = hashlib.sha256()
    digest.update(np.asarray(dataset.xs.shape, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(dataset.xs).tobytes())
    digest.update(np.ascontiguousarray(dataset.ys).tobytes())
    return digest.hexdigest()


def finite_or_null(doc):
    """The document with every non-finite float replaced by None (JSON null)."""
    if isinstance(doc, dict):
        return {key: finite_or_null(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [finite_or_null(value) for value in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    return doc


def check_json_number(value, name: str) -> None:
    """Raise an InputError naming the field unless value is a JSON number a float can hold.

    float() and numpy would read a boolean as 1.0 or 0.0, and numpy a
    numeric string or a null as a float, even inside a row of numbers.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{name} must be a JSON number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise InputError(f"{name} is an integer too large for a float") from None


def check_writable(path: str, *, make_dirs: bool = False) -> None:
    """Raise the InputError write_text would raise if path cannot be written; create nothing.

    Only what exists is looked at: path must be nonempty, and not a
    directory or a file this process may not write, and the nearest
    existing ancestor of its directory (the directory itself unless
    make_dirs) must be a directory, or a symlink that resolves to one,
    that this process may write.  A symlink's directory is its target's,
    which open() writes through to.
    """
    if not path:
        raise InputError(f"cannot write {path}: the path is empty")
    existing = os.path.dirname(os.path.realpath(path) if os.path.islink(path) else os.path.abspath(path))
    while make_dirs and not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not (os.path.isdir(existing) and os.access(existing, os.W_OK | os.X_OK)):
        raise InputError(f"cannot write {path}: {existing} is not a writable directory")
    if os.path.isdir(path) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise InputError(f"cannot write {path}: it is not a writable file")


def write_text(path: str, chunks, *, make_dirs: bool = False) -> None:
    """Write the strings in chunks to path as UTF-8, first creating its directory if make_dirs.

    Any OSError, from the directory or the file, becomes an InputError naming the path.
    """
    try:
        if make_dirs:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def read_json(path: str, what: str):
    """The JSON document at path; a file that cannot be read raises an InputError naming `what` and path.

    A leading UTF-8 byte-order mark is dropped, as RFC 8259 §8.1 lets a parser do.
    A key given twice in one object is an error, not a silent last-one-wins.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a repeated key, nesting too deep
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _unique_keys(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def write_json(path: str, doc, *, make_dirs: bool = False) -> None:
    """Write doc to path as strict JSON: non-finite floats as null, indented, newline-terminated.

    The text is streamed to the file as it is encoded, as json.dump does.
    """
    chunks = json.JSONEncoder(indent=2, allow_nan=False).iterencode(finite_or_null(doc))
    write_text(path, itertools.chain(chunks, ["\n"]), make_dirs=make_dirs)
