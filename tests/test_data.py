import hashlib
import json
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopqa.data as hd
import hopqa.verification as hv
import reference_ops as ro

from hopqa.autodiff import DataError
from hopqa.data import (
    Example,
    LoadStats,
    build_vocab,
    examples_from_hotpot_records,
    load_hotpotqa,
    load_squad,
    make_batches,
    synth_two_hop,
    synth_two_hop_records,
    tokenize,
    truncate_example,
)
from hopqa.layers import UNK_ID


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_trailing_period():
    assert [t.text for t in tokenize("Thug Misses.")] == ["Thug", "Misses", "."]


def test_tokenize_peels_quotes_by_rule():
    # rule trace: leading ' peeled, then trailing ' peeled from the chunk
    got = [t.text for t in tokenize("'Thug Misses'")]
    assert got == ["'", "Thug", "Misses", "'"]


def test_tokenize_offsets_round_trip():
    text = "Khia (born 1970), sold 'over' 2 million -- records!"
    toks = tokenize(text)
    for t in toks:
        assert text[t.start:t.end] == t.text
    rebuilt = "".join(t.text for t in toks)
    assert rebuilt == "".join(text.split())


# letters, every ASCII punctuation mark, ASCII and Unicode whitespace (the
# information separators \x1c-\x1f are whitespace to str.isspace()) and
# non-ASCII letters, among them one whose lowercase is two characters
_TOKENIZER_ALPHABET = ("abcXYZ09" + string.punctuation + " \t\n\r\x0b\x0c"
                       + "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000" + "éßİЖ漢")


@settings(deadline=None, max_examples=300)
@given(st.text(alphabet=_TOKENIZER_ALPHABET, max_size=40))
def test_tokenize_matches_character_loop_reference(text):
    toks = tokenize(text)
    assert toks == ro.tokenize(text)
    for tok in toks:
        assert text[tok.start:tok.end] == tok.text


# ---------------------------------------------------------------------------
# hotpot loading


def _table_record():
    # the running two-hop album example, two gold docs and one distractor
    return {
        "_id": "ex1",
        "question": ("The rapper whose debut album was titled 'Thug Misses' "
                     "has sold over how many records worldwide?"),
        "answer": "2 million",
        "context": [
            ["Thug Misses", ["Thug Misses is the debut album by American rapper Khia.",
                             "The album was originally released in 2001."]],
            ["Khia", ["Khia Shamone Finch is an American rapper.",
                      "To date Khia has collectively sold over 2 million records worldwide."]],
            ["Other", ["An unrelated sentence about something else."]],
        ],
        "supporting_facts": [["Thug Misses", 0], ["Khia", 1]],
    }


def test_hotpot_record_resolves_answer_and_sup():
    examples, stats = examples_from_hotpot_records([_table_record()])
    ex = examples[0]
    assert stats.warnings_total == 0
    assert sum(ex.sup_labels) == 2
    assert ex.answer_type == "span"
    s, e = ex.answer_span
    assert ex.context_tokens[s:e + 1] == ["2", "million"]
    # the located span sits inside the second gold sentence
    span = next(sp for sp in ex.sentence_spans
                if sp.start <= s < sp.end)
    assert ex.doc_boundaries[span.doc_index][0] == "Khia"
    assert span.sent_index == 1


def test_hotpot_yes_answer_has_no_span():
    rec = _table_record()
    rec["answer"] = "yes"
    examples, _ = examples_from_hotpot_records([rec])
    assert examples[0].answer_type == "yes"
    assert examples[0].answer_span is None


def test_hotpot_answer_not_found_masks_span():
    rec = _table_record()
    rec["answer"] = "7 billion"
    examples, stats = examples_from_hotpot_records([rec])
    assert examples[0].answer_span is None
    assert stats.answers_not_found == 1


def test_hotpot_missing_sup_reference_dropped():
    rec = _table_record()
    rec["supporting_facts"].append(["Nowhere", 0])
    examples, stats = examples_from_hotpot_records([rec])
    assert stats.sup_dropped == 1
    assert sum(examples[0].sup_labels) == 2


def test_hotpot_answer_prefers_gold_sentence():
    rec = _table_record()
    # the same string also occurs in a non-gold sentence placed earlier
    rec["context"][0][1][1] = "A fake claim of 2 million records on this album."
    examples, _ = examples_from_hotpot_records([rec])
    ex = examples[0]
    s, _ = ex.answer_span
    span = next(sp for sp in ex.sentence_spans if sp.start <= s < sp.end)
    assert ex.doc_boundaries[span.doc_index][0] == "Khia"


def test_hotpot_answer_found_where_lowercasing_changes_length():
    # "İ".lower() is two characters, so offsets into the lowercased sentence
    # run ahead of the original's
    rec = {"_id": "dotted", "question": "which letter ?", "answer": "a",
           "context": [["Doc", ["İİİ a bc ."]]], "supporting_facts": [["Doc", 0]]}
    examples, stats = examples_from_hotpot_records([rec])
    assert stats.warnings_total == 0
    assert examples[0].answer_span == (1, 1)
    assert examples[0].context_tokens[1] == "a"


def _hotpot_with(field: str, value):
    rec = _table_record()
    rec[field] = value
    return rec


def _hotpot_file(tmp_path, payload) -> str:
    path = tmp_path / "hotpot.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("payload,match", [
    ([_table_record(), _hotpot_with("context", [["Rex"]])], "record 1"),
    ([_table_record(), _hotpot_with("context", ["Rex"])], "record 1"),
    ([_table_record(), _hotpot_with("supporting_facts", [["Rex"]])], "record 1"),
    ([_table_record(), _hotpot_with("supporting_facts", [["Rex", "x"]])], "record 1"),
    ([_table_record(), {k: v for k, v in _table_record().items() if k != "context"}],
     "record 1: missing field 'context'"),
    ({"data": [_table_record()]}, "field 'top-level JSON' must be a list"),
], ids=["entry_without_sentences", "entry_as_string", "fact_without_sentence_id",
        "fact_with_text_sentence_id", "missing_context", "dict_top_level"])
def test_hotpot_malformed_record_raises_data_error(tmp_path, payload, match):
    path = _hotpot_file(tmp_path, payload)
    with pytest.raises(DataError, match=f"{re.escape(path)}: {match}"):
        load_hotpotqa(path)


@pytest.mark.parametrize("field,value", [
    ("answer", 5), ("answer", None), ("question", 7), ("supporting_facts", 5),
    ("context", "Rex"),
], ids=["numeric_answer", "null_answer", "numeric_question", "numeric_facts",
        "string_context"])
def test_hotpot_wrong_typed_field_raises_data_error(tmp_path, field, value):
    path = _hotpot_file(tmp_path, [_table_record(), _hotpot_with(field, value)])
    with pytest.raises(DataError, match=f"{re.escape(path)}: record 1 .*'{field}'"):
        load_hotpotqa(path)


def test_hotpot_truncated_json_raises(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('[{"_id": "x", "question": "q"')
    with pytest.raises(DataError, match="parse error"):
        load_hotpotqa(str(path))


def test_hotpot_file_round_trip(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps([_table_record()]))
    examples, stats = load_hotpotqa(str(path))
    assert len(examples) == 1 and stats.warnings_total == 0


# ---------------------------------------------------------------------------
# squad loading


def _squad_payload():
    context = "The tower is 324 metres tall. It opened in 1889 in Paris."
    return {"data": [{"title": "Eiffel", "paragraphs": [{
        "context": context,
        "qas": [
            {"id": "q1", "question": "How tall is the tower?",
             "answers": [{"text": "324 metres", "answer_start": context.find("324")}]},
            {"id": "q2", "question": "When did it open?",
             "answers": [{"text": "889", "answer_start": context.find("889")}]},
        ]}]}]}


def test_squad_aligned_offset_exact_tokens(tmp_path):
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(_squad_payload()))
    examples, stats = load_squad(str(path))
    ex = examples[0]
    s, e = ex.answer_span
    assert ex.context_tokens[s:e + 1] == ["324", "metres"]
    assert ex.sentence_spans[0].end > 0 and len(ex.sentence_spans) == 2


def test_squad_mid_token_offset_snaps_to_covering_token(tmp_path):
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(_squad_payload()))
    examples, stats = load_squad(str(path))
    ex = examples[1]      # answer "889" starts mid-token inside "1889"
    s, e = ex.answer_span
    assert ex.context_tokens[s:e + 1] == ["1889"]
    assert stats.offsets_snapped == 1


def test_squad_gold_span_normalizes_to_gold_answer(tmp_path):
    from hopqa.metrics import normalize_answer
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(_squad_payload()))
    examples, _ = load_squad(str(path))
    ex = examples[0]
    s, e = ex.answer_span
    assert normalize_answer(" ".join(ex.context_tokens[s:e + 1])) == \
        normalize_answer(ex.answers[0])


def test_squad_question_without_answers_raises_data_error(tmp_path):
    payload = _squad_payload()
    payload["data"][0]["paragraphs"][0]["qas"][1]["answers"] = []
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="'q2'"):
        load_squad(str(path))


def _without(where: str, key: str) -> dict:
    """The SQuAD payload with ``key`` removed from the object at ``where``:
    "para" is the paragraph, "qa" its second question, "answer" that
    question's first answer."""
    payload = _squad_payload()
    para = payload["data"][0]["paragraphs"][0]
    qa = para["qas"][1]
    del {"para": para, "qa": qa, "answer": qa["answers"][0]}[where][key]
    return payload


@pytest.mark.parametrize("payload,match", [
    (_without("qa", "question"), "paragraph 0 question 1: missing field 'question'"),
    (_without("qa", "id"), "paragraph 0 question 1: missing field 'id'"),
    (_without("answer", "answer_start"), "question 'q2': malformed answer"),
    (_without("para", "context"), "article 0 paragraph 0: missing field 'context'"),
], ids=["question", "id", "answer_start", "context"])
def test_squad_missing_field_raises_data_error(tmp_path, payload, match):
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=match):
        load_squad(str(path))


def _squad_with(where: str, key: str, value) -> dict:
    """The SQuAD payload with ``key`` set to ``value`` in the object at
    ``where``, as in ``_without``."""
    payload = _squad_payload()
    para = payload["data"][0]["paragraphs"][0]
    qa = para["qas"][1]
    {"para": para, "qa": qa, "answer": qa["answers"][0]}[where][key] = value
    return payload


@pytest.mark.parametrize("payload,match", [
    (_squad_with("answer", "text", 5), "question 'q2' answer: field 'text'"),
    (_squad_with("para", "context", 5), "article 0 paragraph 0: field 'context'"),
    (_squad_with("qa", "question", 7), "question 'q2': field 'question'"),
    ([_squad_payload()], "squad.json: field 'top-level JSON' must be a dict"),
    ({"data": {"0": {}}}, "squad.json: field 'data' must be a list"),
    ({"data": [[]]}, r"squad.json: field 'data\[0\]' must be a dict"),
    ({"data": [{"paragraphs": {}}]}, "article 0: field 'paragraphs' must be a list"),
    (_squad_with("para", "qas", 3), "article 0 paragraph 0: field 'qas' must be a list"),
    ({"data": [{"title": 5, "paragraphs": []}]}, "article 0: field 'title' must be a str"),
], ids=["numeric_answer_text", "numeric_context", "numeric_question", "list_top_level",
        "dict_data", "list_article", "dict_paragraphs", "numeric_qas", "numeric_title"])
def test_squad_wrong_typed_field_raises_data_error(tmp_path, payload, match):
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=match):
        load_squad(str(path))


# ---------------------------------------------------------------------------
# vocab


def test_empty_corpus_vocab_is_pad_unk_only():
    v = build_vocab([])
    assert v.n_words == 2 and v.n_chars == 2


def test_vocab_rebuild_is_deterministic():
    examples = synth_two_hop(5, seed=3)
    a = build_vocab(examples)
    b = build_vocab(examples)
    assert a.word_to_id == b.word_to_id and a.char_to_id == b.char_to_id


def test_min_freq_drops_hapax_to_unk():
    examples, _ = examples_from_hotpot_records([_table_record()])
    v1 = build_vocab(examples, min_freq=1)
    v2 = build_vocab(examples, min_freq=2)
    # counting oracle: words occurring once must map to unk under min_freq=2
    hapax = [w for w, c in v1.word_freq.items() if c == 1]
    assert hapax
    for w in hapax:
        assert v2.word_id(w) == UNK_ID
    # frequent words keep ids
    assert v2.word_id("the") != UNK_ID


def test_unknown_word_maps_to_unk():
    examples, _ = examples_from_hotpot_records([_table_record()])
    v = build_vocab(examples)
    assert v.word_id("zzz-never-seen") == UNK_ID


# ---------------------------------------------------------------------------
# batching and truncation


def _long_example(n_sentences=50, sent_len=60):
    sents = [" ".join(f"w{k}x{i}" for i in range(sent_len - 1)) + " ."
             for k in range(n_sentences)]
    rec = {"_id": "long", "question": "what is w0x0?", "answer": "w1x1",
           "context": [["Doc", sents]], "supporting_facts": [["Doc", 0]]}
    examples, _ = examples_from_hotpot_records([rec])
    return examples[0]


def test_truncation_respects_sentence_boundaries():
    ex = _long_example()          # 3000 tokens
    assert ex.n_tokens == 3000
    trimmed, truncated, _ = truncate_example(ex, 2550)
    assert truncated
    assert trimmed.n_tokens <= 2550
    assert trimmed.n_tokens == trimmed.sentence_spans[-1].end
    assert trimmed.n_tokens % 60 == 0          # whole sentences only


def test_truncation_counter_and_span_loss():
    ex = _long_example()
    # answer near the end: moves the gold span past the cut
    ex.answer_span = (2990, 2991)
    vocab = build_vocab([ex])
    batches, stats = make_batches([ex], vocab, batch_size=1)
    assert stats.truncated_examples == 1
    assert stats.spans_lost_to_truncation == 1
    assert batches[0].span_mask[0] == 0.0


def test_fully_truncated_context_raises_data_error():
    # the middle example's first sentence is longer than the cap: 0 tokens left
    examples = synth_two_hop(3, seed=1)
    assert [truncate_example(ex, 11)[0].n_tokens for ex in examples] == [11, 0, 11]
    vocab = build_vocab(examples)
    with pytest.raises(DataError, match=examples[1].id):
        make_batches(examples, vocab, batch_size=3, max_context_tokens=11)


@pytest.mark.parametrize("n", [1, 3], ids=["alone", "in_a_batch"])
def test_empty_question_raises_data_error(n):
    # alone, its char ids would be (1, 0, W); beside others, a fully masked query
    examples = synth_two_hop(n, seed=1)
    examples[-1].question_tokens = []
    vocab = build_vocab(examples)
    with pytest.raises(DataError, match=f"{examples[-1].id!r} has no question tokens"):
        make_batches(examples, vocab, batch_size=n)


def test_batch_masks_match_lengths():
    examples = synth_two_hop(7, seed=1)
    vocab = build_vocab(examples)
    batches, _ = make_batches(examples, vocab, batch_size=3)
    for batch in batches:
        for i, ex in enumerate(batch.examples):
            assert batch.context_mask[i].sum() == ex.n_tokens
            assert batch.question_mask[i].sum() == len(ex.question_tokens)
            assert batch.sentence_mask[i].sum() == len(ex.sentence_spans)


def test_batch_shuffle_deterministic_under_seed():
    examples = synth_two_hop(12, seed=5)
    vocab = build_vocab(examples)
    a, _ = make_batches(examples, vocab, batch_size=4,
                        rng=np.random.default_rng(9), shuffle=True)
    b, _ = make_batches(examples, vocab, batch_size=4,
                        rng=np.random.default_rng(9), shuffle=True)
    ids_a = [ex.id for batch in a for ex in batch.examples]
    ids_b = [ex.id for batch in b for ex in batch.examples]
    assert ids_a == ids_b
    c, _ = make_batches(examples, vocab, batch_size=4)
    assert [ex.id for batch in c for ex in batch.examples] == [ex.id for ex in examples]


def test_batch_label_arrays_align():
    examples = synth_two_hop(4, seed=2)
    vocab = build_vocab(examples)
    batches, _ = make_batches(examples, vocab, batch_size=4)
    batch = batches[0]
    for i, ex in enumerate(batch.examples):
        assert batch.span_mask[i] == 1.0
        s, e = int(batch.y_start[i]), int(batch.y_end[i])
        assert ex.context_tokens[s:e + 1] == ex.answers[0].split()
        assert batch.sup_labels[i].sum() == 2


def _per_token_ids(seqs, vocab, w, length):
    """The per-token loop that batch assembly replaced, kept as reference."""
    words = np.zeros((len(seqs), length), dtype=np.int64)
    chars = np.zeros((len(seqs), length, w), dtype=np.int64)
    for i, seq in enumerate(seqs):
        for k, tok in enumerate(seq):
            words[i, k] = vocab.word_id(tok)
            ids = [vocab.char_id(c) for c in tok[:w]]
            chars[i, k] = ids + [0] * (w - len(ids))
    return words, chars


def test_batch_token_ids_match_per_token_lookup():
    examples = synth_two_hop(5, seed=4)
    vocab = build_vocab(examples[:3])           # the last two bring unknown words
    long_word = "Supercalifragilistic"          # longer than max_word_len
    examples[0].context_tokens[3] = long_word
    examples[0].question_tokens[0] = long_word
    examples[1].context_tokens[0] = "Ωμέγα"    # characters outside the vocab
    examples.append(_long_example())            # truncated to the cap
    batches, stats = make_batches(examples, vocab, batch_size=3, max_word_len=8)
    assert stats.truncated_examples == 1
    for batch in batches:
        t, j = batch.context_tokens.shape[1], batch.question_tokens.shape[1]
        cw, cc = _per_token_ids([ex.context_tokens for ex in batch.examples], vocab, 8, t)
        qw, qc = _per_token_ids([ex.question_tokens for ex in batch.examples], vocab, 8, j)
        assert np.array_equal(batch.token_words[batch.context_tokens], cw)
        assert np.array_equal(batch.token_chars[batch.context_tokens], cc)
        assert np.array_equal(batch.token_words[batch.question_tokens], qw)
        assert np.array_equal(batch.token_chars[batch.question_tokens], qc)
    assert (batches[0].token_words == UNK_ID).any()
    assert (batches[0].token_chars == UNK_ID).any()


@pytest.mark.parametrize("with_padding", [True, False])
def test_token_table_and_index_rebuild_every_position(with_padding):
    # one row per distinct token of the context and question together; row 0
    # is the padding token, also where no position is padding
    examples = synth_two_hop(3 if with_padding else 1, seed=4)
    vocab = build_vocab(examples)
    (batch,), _ = make_batches(examples, vocab, batch_size=3, max_word_len=8)
    assert (batch.context_mask == 0).any() == with_padding
    seqs = [ex.context_tokens for ex in examples] + [ex.question_tokens for ex in examples]
    tokens: dict[int, str] = {}
    for seq, row in zip(seqs, [*batch.context_tokens, *batch.question_tokens]):
        assert not row[len(seq):].any()
        for k, tok in zip(row, seq):
            assert tokens.setdefault(int(k), tok) == tok
    n_distinct = len({tok for seq in seqs for tok in seq})
    assert sorted(tokens) == list(range(1, n_distinct + 1))
    assert len(batch.token_words) == len(batch.token_chars) == n_distinct + 1
    words, chars = _per_token_ids([list(tokens.values())], vocab, 8, len(tokens))
    assert np.array_equal(batch.token_words[list(tokens)], words[0])
    assert np.array_equal(batch.token_chars[list(tokens)], chars[0])
    assert batch.token_words[0] == 0 and not batch.token_chars[0].any()


@pytest.mark.parametrize("batch_size", [0, -1])
def test_batch_size_below_one_raises(batch_size):
    examples = synth_two_hop(2, seed=1)
    vocab = build_vocab(examples)
    with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
        make_batches(examples, vocab, batch_size=batch_size)


# ---------------------------------------------------------------------------
# synthetic data


def test_synth_has_exactly_two_positive_sup_labels():
    (ex,) = synth_two_hop(1, seed=7)
    assert sum(ex.sup_labels) == 2


def test_synth_answer_inside_gold_sentence():
    for ex in synth_two_hop(6, seed=8):
        s, e = ex.answer_span
        span = next(sp for sp in ex.sentence_spans if sp.start <= s < sp.end)
        k = ex.sentence_spans.index(span)
        assert ex.sup_labels[k] == 1
        assert e < span.end


def test_synth_distinct_seeds_distinct_entities():
    a = synth_two_hop_records(3, seed=1)
    b = synth_two_hop_records(3, seed=2)
    titles_a = {title for rec in a for title, _ in rec["context"]}
    titles_b = {title for rec in b for title, _ in rec["context"]}
    assert titles_a != titles_b


def test_synth_rejects_zero():
    with pytest.raises(ValueError):
        synth_two_hop_records(0, seed=1)


def test_synth_loads_with_zero_warnings():
    records = synth_two_hop_records(10, seed=11)
    _, stats = examples_from_hotpot_records(records)
    assert stats.warnings_total == 0


# SHA-256 of the synthetic records, their examples and their vocabulary, as
# ``_synth_digest`` forms it. Recorded with numpy 2.4.6 on CPython 3.11.7. It
# rests on numpy's Generator streams, which numpy does not promise to keep
# across releases, so a failure under another numpy may be numpy's change.
SYNTH_DIGEST = "ec899c05111c762abb4ed171825b188bbdebc9a73d9fab6b35efb6146044ca3f"


def _synth_digest() -> str:
    h = hashlib.sha256()
    for seed in (0, 1, 7):
        for n_distractors in (0, 2, 22, 120):
            records = synth_two_hop_records(3, seed, n_distractors)
            examples = synth_two_hop(3, seed, n_distractors)
            vocab = build_vocab(examples)
            h.update(json.dumps(records).encode())
            h.update(repr(examples).encode())
            for table in (vocab.word_to_id, vocab.char_to_id, vocab.word_freq):
                h.update(repr(list(table.items())).encode())
    return h.hexdigest()


def test_synth_records_examples_and_vocab_are_pinned():
    # word_freq is hashed in its own key order, which build_vocab must keep
    assert _synth_digest() == SYNTH_DIGEST


def test_synth_records_that_load_with_warnings_raise(monkeypatch):
    records = synth_two_hop_records(2, seed=3)
    records[1]["answer"] = "7 billion"
    monkeypatch.setattr(hd, "synth_two_hop_records", lambda n, seed, n_distractors=2: records)
    with pytest.raises(DataError, match=r"synth_two_hop: .*: answers_not_found=1$"):
        synth_two_hop(2, seed=3)


def test_tiny_batch_record_that_loads_with_warnings_raises(monkeypatch):
    load = hv.examples_from_hotpot_records

    def unfindable_answer(records):
        return load([dict(rec, answer="7 billion") for rec in records])

    monkeypatch.setattr(hv, "examples_from_hotpot_records", unfindable_answer)
    with pytest.raises(DataError, match=r"tiny_batch: .*: answers_not_found=1$"):
        hv.tiny_batch()


def test_sup_labels_always_index_real_sentences():
    for ex in synth_two_hop(8, seed=13):
        assert len(ex.sup_labels) == len(ex.sentence_spans)
        for k, lab in enumerate(ex.sup_labels):
            if lab:
                span = ex.sentence_spans[k]
                assert span.end > span.start


def test_load_stats_total_counts_every_counter():
    assert LoadStats().warnings_total == 0
    assert LoadStats(1, 2, 4, 8).warnings_total == 15
    for name in ("answers_not_found", "sup_dropped", "offsets_snapped", "empty_sentences"):
        assert LoadStats(**{name: 3}).warnings_total == 3, name
