import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from polarpipe.corpus import (
    MAX_TOKENS,
    DataError,
    Dataset,
    GoldLabels,
    Instance,
    LabelSchema,
    _parse_emoji_lines,
    load_dataset,
    load_labels,
    preprocess,
    save_dataset,
    summarize,
)

GOLDEN = Path(__file__).parent / "data" / "preprocess_golden.jsonl"


def load_golden():
    cases = []
    with GOLDEN.open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                cases.append(json.loads(line))
    return cases


def test_golden_file_has_thirty_cases():
    assert len(load_golden()) == 30


@pytest.mark.parametrize("case", load_golden(), ids=lambda c: c["id"])
def test_preprocess_golden(case):
    raw = case["raw"]
    out = preprocess(raw)
    assert out == case["expected"]
    # a text that normalizing leaves as it is comes back as the same object
    assert (out is raw) == (out == raw)
    assert preprocess(out) is out


# A fuzz alphabet biased toward the constructs preprocessing handles:
# emojis with and without table entries, URL/mention/hashtag fragments,
# casing, and messy whitespace.
_FUZZ_CHUNKS = st.sampled_from(
    [
        "😊", "🔥", "🤦‍♂️", "🇺🇸", "🧿", "\U0001f9a9",
        "http://x.co", "https://Y.org/z", "www.a.b", "http://",
        "@user", "@", "#tag", "#", "##",
        "Hello", "WORLD", "MiXeD", "café", "中文", "a-b_c", "42",
        " ", "  ", "\t", "\n",
    ]
)


@given(st.lists(_FUZZ_CHUNKS, min_size=0, max_size=12))
def test_preprocess_idempotent(chunks):
    text = "".join(chunks)
    once = preprocess(text)
    assert preprocess(once) is once


@given(st.text(max_size=40))
def test_preprocess_idempotent_arbitrary_text(text):
    once = preprocess(text)
    assert preprocess(once) == once


def test_preprocess_output_alphabet():
    out = preprocess("Check THIS 😊 http://x.co @user #WOW  \t spaced")
    assert out == out.lower()
    assert "  " not in out
    assert out == out.strip()


def test_unknown_emoji_deleted():
    # nazar amulet has no table entry; it sits in the pictograph range
    assert preprocess("a \U0001f9ff b") == "a b"


def test_keycap_combiners_deleted_digit_kept():
    assert preprocess("1️⃣ first") == "1 first"


def test_variation_selector_longest_match():
    # with and without VS16 both resolve to the same name
    assert preprocess("❤️ vs ❤") == "red heart vs red heart"


def test_emoji_table_rejects_malformed():
    with pytest.raises(DataError, match="line 1"):
        _parse_emoji_lines(["U+1F60A smiling, no tab\n"], "emoji.tsv")
    with pytest.raises(DataError, match="codepoint"):
        _parse_emoji_lines(["U+ZZZZ\tname\n"], "emoji.tsv")
    with pytest.raises(DataError, match="empty codepoint sequence at line 2"):
        _parse_emoji_lines(["# comment\n", "\tname\n"], "emoji.tsv")


# ---------------------------------------------------------------------------
# Schema and dataset construction


def test_schema_validation():
    with pytest.raises(DataError):
        LabelSchema(names=())
    with pytest.raises(DataError, match="duplicate"):
        LabelSchema(names=("a", "a"))
    # label names head every .probs and thresholds file, which are read with
    # universal newlines, so a CR splits a header line just as LF does
    for bad in ("a\tb", "a\nb", "a\rb"):
        with pytest.raises(DataError, match="contains tab or line break"):
            LabelSchema(names=(bad,))
    schema = LabelSchema(names=("only",))
    assert schema.is_binary and schema.n_labels == 1


def test_dataset_rejects_width_mismatch_and_duplicate_ids():
    schema = LabelSchema(names=("a", "b"))
    good = Instance(id="x", raw_text="t", text="t", labels=(0, 1))
    with pytest.raises(DataError, match="labels"):
        Dataset(schema=schema, instances=(Instance(id="y", raw_text="t", text="t", labels=(1,)),))
    with pytest.raises(DataError, match="duplicate id"):
        Dataset(schema=schema, instances=(good, good))


# ---------------------------------------------------------------------------
# JSONL ingestion


def write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r, ensure_ascii=False) + "\n")


def test_load_dataset_binary_and_multilabel(tmp_path):
    p = tmp_path / "bin.jsonl"
    write_jsonl(p, [
        {"id": "a", "text": "Hello World", "label": 1},
        {"id": "b", "text": "#Nope", "label": 0},
    ])
    ds = load_dataset(p, LabelSchema(names=("pol",)))
    assert [inst.labels for inst in ds.instances] == [(1,), (0,)]
    assert ds.instances[0].text == "hello world"
    assert ds.instances[0].raw_text == "Hello World"
    assert ds.instances[1].text == "nope"

    p2 = tmp_path / "multi.jsonl"
    write_jsonl(p2, [
        {"id": "a", "text": "t", "labels": ["x", "z"]},
        {"id": "b", "text": "t", "labels": []},
        {"id": "c", "text": "t", "labels": [0, 1, 0]},
    ])
    ds2 = load_dataset(p2, LabelSchema(names=("x", "y", "z")))
    assert [inst.labels for inst in ds2.instances] == [(1, 0, 1), (0, 0, 0), (0, 1, 0)]

    for path, ds in ((p, ds), (p2, ds2)):
        gold = load_labels(path, ds.schema)
        assert gold.ids == tuple(ds.ids) and gold.labels == ds.labels


def test_load_dataset_error_lines(tmp_path):
    schema = LabelSchema(names=("x", "y"))
    p = tmp_path / "bad.jsonl"

    def both_raise(match):
        # the gold-label reader validates and fails exactly like load_dataset
        messages = []
        for reader in (load_dataset, load_labels):
            with pytest.raises(DataError, match=match) as info:
                reader(p, schema)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"{p}: ")

    write_jsonl(p, [{"id": "a", "text": "t", "labels": ["x"]},
                    {"id": "b", "text": "t", "labels": ["politcal"]}])
    both_raise(r"unknown label 'politcal' at line 2")

    write_jsonl(p, [{"id": "a", "text": "t", "labels": []},
                    {"id": "a", "text": "t", "labels": []}])
    both_raise(r"duplicate id 'a' at line 2")

    p.write_text('{"id": "a", "text": "t", "labels": []}\nnot json\n', encoding="utf-8")
    both_raise("line 2")

    write_jsonl(p, [{"id": "a", "text": "t"}])
    both_raise("line 1")

    write_jsonl(p, [{"id": "a", "text": "t", "labels": [0, 2]}])
    both_raise("0/1")

    write_jsonl(p, [{"id": "a", "text": "t", "label": 1}])
    both_raise("schema has 2")

    p.write_bytes(b'{"id": "a", "text": "t", "labels": []}\n{"id": "b", "text": "caf\xe9", "labels": []}\n')
    both_raise("not valid UTF-8 at line 2")

    # ids go into tab-separated, line-based files such as .probs
    for ident in ("a\tb", "a\rb", "a\nb"):
        write_jsonl(p, [{"id": "x", "text": "t", "labels": []}, {"id": ident, "text": "t", "labels": []}])
        both_raise("'id' contains a tab or line break at line 2")

    # a lone surrogate cannot be written back as UTF-8
    p.write_text('{"id": "\\ud800", "text": "t", "labels": []}\n', encoding="utf-8")
    both_raise("'id' is not encodable as UTF-8 at line 1")
    p.write_text('{"id": "a", "text": "ok \\udfff", "labels": []}\n', encoding="utf-8")
    both_raise("'text' is not encodable as UTF-8 at line 1")


@pytest.mark.parametrize("value", [1.0, 0.0, -0.0, True])
def test_scalar_label_must_be_the_integer_0_or_1(tmp_path, value):
    # as in a label vector, where [1.0] mixes types
    p = tmp_path / "bin.jsonl"
    write_jsonl(p, [{"id": "a", "text": "t", "label": 1}, {"id": "b", "text": "t", "label": value}])
    for reader in (load_dataset, load_labels):
        with pytest.raises(DataError) as info:
            reader(p, LabelSchema(names=("pol",)))
        assert str(info.value) == f"{p}: label must be 0 or 1 at line 2, got {value!r}"


def test_save_load_round_trip(tmp_path):
    schema = LabelSchema(names=("x", "y"))
    p = tmp_path / "ds.jsonl"
    write_jsonl(p, [
        {"id": "a", "text": "Hello @you #tag", "labels": ["y"]},
        {"id": "b", "text": "😊 ok", "labels": []},
    ])
    ds = load_dataset(p, schema)
    out = tmp_path / "out.jsonl"
    save_dataset(ds, out)
    ds2 = load_dataset(out, schema)
    assert ds2.instances == ds.instances

    # binary round-trip keeps the scalar label form
    pb = tmp_path / "bin.jsonl"
    write_jsonl(pb, [{"id": "a", "text": "t", "label": 1}])
    dsb = load_dataset(pb, LabelSchema(names=("pol",)))
    outb = tmp_path / "bin_out.jsonl"
    save_dataset(dsb, outb)
    assert json.loads(outb.read_text())["label"] == 1


def test_save_dataset_bytes_match_json_dumps(tmp_path):
    # the shared encoder writes what json.dumps(record, ensure_ascii=False) writes
    schema = LabelSchema(names=("x", "y"))
    texts = ['quote " back \\ slash', "tab\tnew\nline\x00", "😊 naïve 日本", "\u2028\u2029 \x7f"]
    instances = tuple(
        Instance(id=f"i{k}", raw_text=t, text=t, labels=(k % 2, 1)) for k, t in enumerate(texts)
    )
    out = tmp_path / "out.jsonl"
    save_dataset(Dataset(schema=schema, instances=instances), out)
    want = ""
    for inst in instances:
        names = [name for name, bit in zip(schema.names, inst.labels) if bit]
        record = {"id": inst.id, "text": inst.raw_text, "labels": names}
        want += json.dumps(record, ensure_ascii=False) + "\n"
    assert out.read_bytes() == want.encode("utf-8")


def oracle_save_dataset(ds: Dataset, path) -> None:
    """The writer ``save_dataset`` replaced: one shared ``JSONEncoder`` per record."""
    encoder = json.JSONEncoder(ensure_ascii=False)
    with Path(path).open("w", encoding="utf-8") as fh:
        for inst in ds.instances:
            record: dict = {"id": inst.id, "text": inst.raw_text}
            if ds.schema.is_binary:
                record["label"] = inst.labels[0]
            else:
                record["labels"] = [name for name, bit in zip(ds.schema.names, inst.labels) if bit]
            fh.write(encoder.encode(record) + "\n")


# every str the writer meets: JSON's escaped characters, C0 and C1 controls,
# the line and paragraph separators JSON leaves raw, and astral characters
_JSON_HARD = st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u2029", "\ufeff", "\b\f\n\r\t",
     "😊", "\U0001d11e", "é", "日本"]
)
_STRINGS = st.lists(
    st.one_of(_JSON_HARD, st.text(st.characters(exclude_categories=("Cs",)), max_size=6)), max_size=6
).map("".join)
_NAMES = st.lists(
    st.one_of(_JSON_HARD, st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=4)).filter(
        lambda name: not set(name) & set("\t\n\r")
    ),
    min_size=1,
    max_size=4,
    unique=True,
)


@st.composite
def datasets(draw):
    names = draw(st.one_of(st.just(["pol"]), _NAMES))
    ids = draw(st.lists(_STRINGS, max_size=6, unique=True))
    bits = st.tuples(*[st.integers(0, 1)] * len(names))
    instances = tuple(
        Instance(id=ident, raw_text=text, text="", labels=draw(bits))
        for ident, text in zip(ids, draw(st.lists(_STRINGS, min_size=len(ids), max_size=len(ids))))
    )
    return Dataset(schema=LabelSchema(names=tuple(names)), instances=instances)


@given(datasets())
def test_save_dataset_matches_encoder_oracle(tmp_path_factory, ds):
    # binary and multi-label schemas, empty label lists, and every str JSON escapes
    root = tmp_path_factory.mktemp("save")
    save_dataset(ds, root / "got.jsonl")
    oracle_save_dataset(ds, root / "want.jsonl")
    assert (root / "got.jsonl").read_bytes() == (root / "want.jsonl").read_bytes()


def test_max_tokens_truncates_on_load(tmp_path):
    # dropped tokens do not count toward the limit
    raw = "@user http://x.co " + " ".join(f"w{i}" for i in range(130))
    p = tmp_path / "long.jsonl"
    write_jsonl(p, [{"id": "a", "text": raw, "label": 0}])
    ds = load_dataset(p, LabelSchema(names=("pol",)))
    assert MAX_TOKENS == 128
    assert ds.instances[0].text == " ".join(f"w{i}" for i in range(128))
    assert ds.instances[0].raw_text == raw


# ---------------------------------------------------------------------------
# Each loaded document is held once


def test_load_dataset_shares_normalized_text_and_label_tuples(tmp_path):
    from polarpipe.synth import generate_synthetic

    path = tmp_path / "d.jsonl"
    save_dataset(generate_synthetic(300, [0.4, 0.3, 0.2], noise=0.1, seed=3), path)
    schema = LabelSchema(names=("label0", "label1", "label2"))
    ds = load_dataset(path, schema)
    assert all(inst.text is inst.raw_text for inst in ds.instances)
    for labels in (ds.labels, load_labels(path, schema).labels):
        assert len({id(bits) for bits in labels}) == len(set(labels)) <= 8


def test_equal_label_vectors_are_one_tuple_whatever_their_form(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [
        {"id": "a", "text": "x", "labels": []},
        {"id": "b", "text": "x", "labels": [0, 0]},
        {"id": "c", "text": "x", "labels": ["q"]},
        {"id": "d", "text": "x", "labels": [0, 1]},
        {"id": "e", "text": "x", "labels": []},
    ])
    schema = LabelSchema(names=("p", "q"))
    for labels in (load_dataset(path, schema).labels, load_labels(path, schema).labels):
        assert labels == ((0, 0), (0, 0), (0, 1), (0, 1), (0, 0))
        assert labels[0] is labels[1] is labels[4]
        assert labels[2] is labels[3]


def test_instance_is_slotted_and_replaceable():
    inst = Instance(id="a", raw_text="Hi", text="hi", labels=(1,))
    assert not hasattr(inst, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.text = "x"
    assert dataclasses.replace(inst, text="x") == Instance(
        id="a", raw_text="Hi", text="x", labels=(1,)
    )


def test_load_dataset_memory_per_document(tmp_path):
    from polarpipe.synth import generate_synthetic

    n = 2000
    # tracemalloc does not see a tuple that CPython takes from its free lists,
    # so nothing is freed before the load: the source corpus stays alive, and
    # the emoji pattern and the reader are warmed up on a small file
    source = generate_synthetic(n, [0.30, 0.20, 0.15, 0.10, 0.06, 0.04], noise=0.1, seed=901)
    path = tmp_path / "d.jsonl"
    save_dataset(source, path)
    small = tmp_path / "small.jsonl"
    save_dataset(generate_synthetic(20, [0.3, 0.2], seed=1), small)
    load_dataset(small, LabelSchema(names=("label0", "label1")))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = load_dataset(path, source.schema)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ds) == n
    # each text once, a slotted instance, shared label tuples: ~281 B; with
    # a second copy of the text, a __dict__ and a tuple per row it was ~553 B
    assert retained / n < 350


def _decorated_posts(n: int) -> list[dict]:
    """``n`` binary records; each joins the decorated posts in a rotated order."""
    from helpers import RAW_POSTS

    k = len(RAW_POSTS)
    return [
        {"id": f"p{i:05d}", "text": " ".join(RAW_POSTS[(i + j) % k] for j in range(k)) + f" post{i}",
         "label": i % 2}
        for i in range(n)
    ]


def test_load_dataset_without_raw_text_holds_the_normalized_text_once(tmp_path):
    from helpers import RAW_POSTS

    schema = LabelSchema(names=("x", "y"))
    p = tmp_path / "posts.jsonl"
    write_jsonl(p, [{"id": f"p{i}", "text": text, "labels": [[], ["x"], ["y", "x"]][i % 3]}
                    for i, text in enumerate(RAW_POSTS)])
    full = load_dataset(p, schema)
    lean = load_dataset(p, schema, keep_raw=False)
    assert lean.ids == full.ids
    assert [inst.text for inst in lean.instances] == [inst.text for inst in full.instances]
    assert lean.labels == full.labels
    assert all(inst.raw_text is inst.text for inst in lean.instances)
    # every post but the empty and the plain one changes under normalization
    assert sum(inst.raw_text != inst.text for inst in full.instances) == len(RAW_POSTS) - 2


def test_load_dataset_without_raw_text_memory_per_document(tmp_path):
    n = 2000
    schema = LabelSchema(names=("pol",))
    path = tmp_path / "posts.jsonl"
    write_jsonl(path, _decorated_posts(n))
    small = tmp_path / "small.jsonl"
    write_jsonl(small, _decorated_posts(20))
    load_dataset(small, schema)
    # both loads stay alive, so nothing is freed while tracemalloc counts
    loaded = []
    retained = {}
    tracemalloc.start()
    try:
        for keep_raw in (True, False):
            before = tracemalloc.get_traced_memory()[0]
            loaded.append(load_dataset(path, schema, keep_raw=keep_raw))
            retained[keep_raw] = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert [len(ds) for ds in loaded] == [n, n]
    # a raw post that holds an emoji takes 4 bytes a character beside its
    # ASCII normalized form: ~1,155 B per document with it, ~414 B without
    assert retained[False] < retained[True] / 2


# ---------------------------------------------------------------------------
# Statistics


def test_summarize_counts_and_ratios():
    from helpers import mk_dataset

    ds = mk_dataset([(1, 0), (1, 0), (1, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)])
    stats = summarize(ds)
    assert stats.n_instances == 8
    assert stats.per_label_positive == [3, 0]
    assert stats.per_label_positive_pct == [3 / 8, 0.0]
    assert stats.imbalance_ratio_per_label[0] == pytest.approx(5 / 3)
    assert stats.imbalance_ratio_per_label[1] == math.inf
    assert stats.all_zero_rows == 5
    assert stats.label_cardinality_histogram == {0: 5, 1: 3}


def test_summarize_reads_only_the_labels(tmp_path):
    p = tmp_path / "d.jsonl"
    write_jsonl(p, [{"id": "a", "text": "t", "labels": ["x", "z"]},
                    {"id": "b", "text": "😊 @u", "labels": []},
                    {"id": "c", "text": "", "labels": ["z"]}])
    schema = LabelSchema(names=("x", "y", "z"))
    assert summarize(load_labels(p, schema)) == summarize(load_dataset(p, schema))


def test_summarize_empty_dataset_errors():
    schema = LabelSchema(names=("a",))
    for empty in (Dataset(schema=schema, instances=()), GoldLabels(schema=schema, ids=(), labels=())):
        with pytest.raises(DataError):
            summarize(empty)
