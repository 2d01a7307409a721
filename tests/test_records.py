"""Corpus, partition and samples files: one writer, one strict reader."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tailflow.datagen import ClassSpec, generate_corpus, load_corpus, save_corpus, tail8_specs
from tailflow.metrics import load_features, save_samples
from tailflow.partition import Partition, label_tier_partition, load_partition, save_partition

CORPUS = generate_corpus(tail8_specs(40), 2, seed=4)

SAVE = {
    "corpus": lambda path: save_corpus(CORPUS, path),
    "partition": lambda path: save_partition(label_tier_partition(CORPUS, 4), path),
    "samples": lambda path: save_samples(path, CORPUS.x, CORPUS.labels),
}
LOAD = {
    "corpus": load_corpus,
    "partition": lambda path: load_partition(path, CORPUS),
    "samples": lambda path: load_features(path, tag="generated"),
}
ALL = tuple(SAVE)
WITH_FLOATS = ("corpus", "samples")


def _replace_first(old, new):
    return lambda lines: [line.replace(old, new, 1) for line in lines]


# (fault, kinds, record edited or None for a header edit, edit, message,
#  whether the message names the line); a record edit maps the record's
#  fields to new fields, or is None to keep the last record and drop the
#  file's final newline, and a header edit maps all lines to new lines
FAULTS = [
    ("wrong format", ALL, None, lambda lines: ["# tailflow-other 1"] + lines[1:],
     "not a tailflow-", False),
    ("wrong version", ALL, None, lambda lines: [lines[0][:-1] + "9"] + lines[1:],
     "not a tailflow-", False),
    ("missing header key", ALL, None, lambda lines: lines[:1] + lines[2:],
     "missing header key", False),
    ("non-integer width", WITH_FLOATS, None, _replace_first("# dimension 2", "# dimension two"),
     "invalid literal for int", False),
    ("class line without a count", ("corpus",), None, _replace_first(" count=", " tally="),
     "class 0: missing count=", False),
    # headers the writer never writes: a loader compares the header it read
    # with the one its writer builds for the loaded object
    ("healthy flag 2", ("corpus",), None, _replace_first("healthy=1", "healthy=2"),
     "is not in the written form", False),
    ("unknown class field", ("corpus",), None, _replace_first(" count=", " foo=bar count="),
     "is not in the written form", False),
    ("leading-zero width", WITH_FLOATS, None, _replace_first("# dimension 2", "# dimension 02"),
     "is not in the written form", False),
    ("unknown header key", ALL, None, lambda lines: lines[:2] + ["# colour red"] + lines[2:],
     "is not in the written form", False),
    ("noise scale in another float form", ("corpus",), None,
     _replace_first("# noise_scale 0.05", "# noise_scale 5e-2"), "is not in the written form",
     False),
    # header values in the written form that no run makes
    ("negative noise scale", ("corpus",), None,
     _replace_first("# noise_scale 0.05", "# noise_scale -0.05"),
     "noise_scale must be finite and >= 0, got -0.05", False),
    ("NaN noise scale", ("corpus",), None,
     _replace_first("# noise_scale 0.05", "# noise_scale nan"),
     "noise_scale must be finite and >= 0, got nan", False),
    ("infinite noise scale", ("corpus",), None,
     _replace_first("# noise_scale 0.05", "# noise_scale inf"),
     "noise_scale must be finite and >= 0, got inf", False),
    ("negative seed", ("corpus",), None, _replace_first("# seed 4", "# seed -4"),
     "seed must be >= 0, got -4", False),
    ("leading-zero expert count", ("partition",), None,
     _replace_first("# experts 4", "# experts 04"), "is not in the written form", False),
    ("tab after a header's #", WITH_FLOATS, None, _replace_first("# dimension", "#\tdimension"),
     "missing header key 'dimension'", False),
    ("CRLF line ends", ALL, None, lambda lines: [line + "\r" for line in lines],
     "not a tailflow-", False),
    ("extra column", ALL, 0, lambda f: f + ["0"], "fields, expected", True),
    ("short record", ALL, 2, lambda f: f[:-1], "fields, expected", True),
    ("blank line", ALL, 1, lambda f: [], "0 fields, expected", True),
    ("integer column", ALL, 0, lambda f: [f[0], "one", *f[2:]], "invalid literal for int", True),
    ("id column", ALL, 3, lambda f: ["3.0", *f[1:]], "invalid literal for int", True),
    ("float column", WITH_FLOATS, 0, lambda f: [*f[:2], "1.0.0", *f[3:]],
     "could not convert string to float", True),
    ("underscore in a float", WITH_FLOATS, 0, lambda f: [*f[:2], "1_0.5", *f[3:]],
     "token not in the written form", True),
    ("plus-signed float", WITH_FLOATS, 2, lambda f: [*f[:-1], "+" + f[-1]],
     "token not in the written form", True),
    ("underscore in an id", ALL, 0, lambda f: ["0_0", *f[1:]], "token not in the written form",
     True),
    ("plus-signed id", ALL, 0, lambda f: ["+0", *f[1:]], "token not in the written form", True),
    ("non-ASCII digit id", ALL, 0, lambda f: ["\u0660", *f[1:]], "token not in the written form",
     True),
    ("plus-signed integer column", ALL, 1, lambda f: [f[0], "+" + f[1], *f[2:]],
     "token not in the written form", True),
    # a lone surrogate is written as the byte 0xff, which is not UTF-8
    ("byte that is not UTF-8", ALL, 2, lambda f: [f[0], f[1] + "\udcff", *f[2:]],
     "not UTF-8: invalid start byte", True),
    ("leading-zero id", ALL, 1, lambda f: ["01", *f[1:]], "token not in the written form", True),
    ("leading-zero integer column", ALL, 0, lambda f: [f[0], "0" + f[1], *f[2:]],
     "token not in the written form", True),
    ("leading-zero mantissa", WITH_FLOATS, 0, lambda f: [*f[:2], "02.0", *f[3:]],
     "token not in the written form", True),
    ("negative leading-zero mantissa", WITH_FLOATS, 3, lambda f: [*f[:-1], "-00.5"],
     "token not in the written form", True),
    ("uppercase exponent", WITH_FLOATS, 0, lambda f: [*f[:2], "2.0E0", *f[3:]],
     "token not in the written form", True),
    # forms that int() and float() take but the writer never writes: the line
    # must equal the one the writer makes from its parsed values
    ("tab separator", ALL, 1, lambda f: [f[0] + "\t" + f[1], *f[2:]],
     "token not in the written form", True),
    ("doubled space", ALL, 2, lambda f: [f[0] + " ", *f[1:]], "token not in the written form",
     True),
    ("trailing space", ALL, 0, lambda f: [*f, ""], "token not in the written form", True),
    ("float without a leading digit", WITH_FLOATS, 0, lambda f: [*f[:2], ".5", *f[3:]],
     "token not in the written form", True),
    ("float with a trailing zero", WITH_FLOATS, 1, lambda f: [*f[:2], "0.50", *f[3:]],
     "token not in the written form", True),
    ("exponent the writer would not use", WITH_FLOATS, 0, lambda f: [*f[:2], "5e-1", *f[3:]],
     "token not in the written form", True),
    ("float without a fraction digit", WITH_FLOATS, 3, lambda f: [*f[:-1], "1."],
     "token not in the written form", True),
    ("nan", WITH_FLOATS, 0, lambda f: [*f[:2], "nan", *f[3:]], "non-finite value", True),
    ("inf", WITH_FLOATS, 5, lambda f: [*f[:-1], "-inf"], "non-finite value", True),
    ("id gap", ALL, 0, lambda f: ["1", *f[1:]], "sample ids must be dense from 0 in order", True),
    ("duplicated id", ALL, 1, lambda f: ["0", *f[1:]], "duplicated sample id 0", True),
    ("negative id", ALL, 0, lambda f: ["-1", *f[1:]], r"sample id -1 out of range \[0, 41\)",
     True),
    ("unknown class", ("corpus",), 0, lambda f: [f[0], "99", *f[2:]],
     "sample 0 has unknown class 99", False),
    ("expert out of range", ("partition",), 0, lambda f: [f[0], "4"], "expert id out of range",
     False),
    ("missing last record", ("corpus",), None, lambda lines: lines[:-1],
     "class 7: 0 samples, spec says 1", False),
    ("missing last record", ("partition",), None, lambda lines: lines[:-1],
     "40 records for a corpus of 41", False),
    ("no newline after the last record", ALL, 40, None, "no newline at the end of the file",
     True),
]


@pytest.mark.parametrize("kind, name, row, edit, message, names_line", [
    pytest.param(kind, name, row, edit, message, names_line, id=f"{kind}-{name}")
    for name, kinds, row, edit, message, names_line in FAULTS
    for kind in kinds
])
def test_malformed_files_are_rejected_naming_file_and_line(
    tmp_path, kind, name, row, edit, message, names_line
):
    path = tmp_path / f"{kind}.txt"
    SAVE[kind](path)
    lines = path.read_text().splitlines()
    end = "\n"
    if row is None:
        lines = edit(lines)
    else:
        at = next(i for i, line in enumerate(lines) if not line.startswith("#")) + row
        if edit is None:
            end = ""
        else:
            lines[at] = " ".join(edit(lines[at].split()))
    path.write_bytes(("\n".join(lines) + end).encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError, match=message) as info:
        LOAD[kind](path)
    text = str(info.value)
    assert text.startswith(f"{path}: ")
    if names_line:
        assert f"{path}: line {at + 1}: " in text
    else:
        assert ": line " not in text


def test_the_writer_refuses_non_finite_floats(tmp_path):
    vectors = np.zeros((4, 2))
    vectors[2, 1] = np.nan
    path = tmp_path / "generated.txt"
    with pytest.raises(ValueError, match="record 2 has a non-finite value") as info:
        save_samples(path, vectors, np.zeros(4, dtype=np.int64))
    assert str(path) in str(info.value)
    assert not path.exists()


def test_written_exponents_and_signs_load(tmp_path):
    # repr writes zero-padded exponents ('1e-05') and '-0.0'; the token check takes them
    vectors = np.array([[1e-05, -1e-05], [1e16, 5e-324], [-0.0, 0.5]])
    path = tmp_path / "generated.txt"
    save_samples(path, vectors, np.array([0, -10, 10]))
    assert "1e-05 -1e-05" in path.read_text() and "1e+16" in path.read_text()
    loaded = load_features(path, tag="generated")
    assert loaded.vectors.tobytes() == vectors.tobytes()
    assert loaded.classes.tolist() == [0, -10, 10]


def test_the_three_kinds_share_one_layout(tmp_path):
    SAVE["samples"](tmp_path / "samples.txt")
    SAVE["corpus"](tmp_path / "corpus.txt")
    samples = (tmp_path / "samples.txt").read_text().splitlines()
    corpus = (tmp_path / "corpus.txt").read_text().splitlines()
    assert samples[:2] == ["# tailflow-samples 1", "# dimension 2"]
    records = [line for line in corpus if not line.startswith("#")]
    # a corpus record is the samples record with the embedding row appended
    for sample, record in zip(samples[2:], records, strict=True):
        assert record.startswith(sample + " ")


@settings(max_examples=30, deadline=None)
@given(means=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=4,
                      unique=True),
       scale=st.integers(1, 3), noise=st.integers(0, 2), seed=st.integers(0, 2**16))
def test_corpus_from_int_valued_specs_round_trip_property(means, scale, noise, seed):
    # the writer renders mean, scale and noise_scale as floats, so an int-valued
    # spec is written in the form the loader's header check expects
    specs = [ClassSpec(i, mean, scale, 3, i == 0) for i, mean in enumerate(means)]
    corpus = generate_corpus(specs, 2, seed, noise_scale=noise)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "corpus.txt", Path(tmp) / "again.txt"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        save_corpus(loaded, again)
        assert again.read_text() == path.read_text()  # the header and every record
    for name in ("x", "embeddings", "labels"):
        assert getattr(loaded, name).tobytes() == getattr(corpus, name).tobytes()
    assert loaded.classes == corpus.classes
    assert (loaded.noise_scale, loaded.seed) == (noise, seed)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), experts=st.integers(1, 6),
       method=st.sampled_from(["label-tier", "embedding-kmeans", "random"]))
def test_partition_round_trip_property(data, experts, method):
    assignments = data.draw(hnp.arrays(np.int64, len(CORPUS), elements=st.integers(0, experts - 1)))
    part = Partition(assignments, experts, method)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "partition.txt"
        save_partition(part, path)
        loaded = load_partition(path, CORPUS)
    assert loaded.assignments.dtype == np.int64
    assert loaded.assignments.tobytes() == assignments.tobytes()
    assert (loaded.num_experts, loaded.method) == (experts, method)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), dimension=st.integers(1, 4))
def test_samples_round_trip_property(data, n, dimension):
    vectors = data.draw(hnp.arrays(np.float64, (n, dimension),
                                   elements=st.floats(allow_nan=False, allow_infinity=False)))
    classes = data.draw(hnp.arrays(np.int64, n, elements=st.integers(-(2**63), 2**63 - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generated.txt"
        save_samples(path, vectors, classes)
        loaded = load_features(path, tag="generated")
    assert loaded.vectors.shape == (n, dimension)
    assert loaded.vectors.tobytes() == vectors.tobytes()  # -0.0 and subnormals too
    assert loaded.classes.tobytes() == classes.tobytes()
    assert loaded.ids.tolist() == list(range(n))
