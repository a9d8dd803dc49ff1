"""Dataset ingestion: tokenization, vocabularies, batching, synthesis.

Contexts arrive as documents made of sentences; they are concatenated into
one token sequence with document and sentence boundaries preserved, since
the supporting-fact head scores whole sentences. Contexts longer than the
cap are truncated at sentence boundaries only.

A batch carries a table of its distinct tokens, over the context and the
question together: per row a word id and the char ids of the token's first
characters. Row 0 is the padding token (word and chars all ``PAD_ID``);
every position holds the index of its token's row, and padded positions
hold 0. The model embeds the table's rows, not the positions.
"""

from __future__ import annotations

import json
import re
import reprlib
import string
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterable, NamedTuple

import numpy as np

from .autodiff import DataError
from .layers import PAD_ID, UNK_ID

MAX_CONTEXT_TOKENS = 2550
ANSWER_TYPES = ("span", "yes", "no")

_PUNCT = set(string.punctuation)
_WORD = re.compile(r"\S+")      # regex \s matches exactly what str.isspace() does


class Token(NamedTuple):
    text: str
    start: int
    end: int


class SentenceSpan(NamedTuple):
    start: int        # global token index, inclusive
    end: int          # global token index, exclusive
    doc_index: int
    sent_index: int   # index within the source document


def tokenize(text: str) -> list[Token]:
    """Split on whitespace, the characters for which ``str.isspace()``
    holds, then peel leading/trailing punctuation into their own single-char
    tokens. Offsets index the original string, so concatenating token
    ranges reproduces all non-space content."""
    tokens: list[Token] = []
    for match in _WORD.finditer(text):
        word = match.group()
        lo, hi = match.span()
        if word[0] not in _PUNCT and word[-1] not in _PUNCT:
            tokens.append(Token(word, lo, hi))
            continue
        while hi - lo > 1 and text[lo] in _PUNCT:
            tokens.append(Token(text[lo], lo, lo + 1))
            lo += 1
        tail: list[Token] = []
        while hi - lo > 1 and text[hi - 1] in _PUNCT:
            tail.append(Token(text[hi - 1], hi - 1, hi))
            hi -= 1
        tokens.append(Token(text[lo:hi], lo, hi))
        tokens.extend(reversed(tail))
    return tokens


# ---------------------------------------------------------------------------
# examples


@dataclass
class Example:
    id: str
    question_tokens: list[str]
    context_tokens: list[str]
    doc_boundaries: list[tuple[str, int, int]]      # (title, token start, token end)
    sentence_spans: list[SentenceSpan]
    answer_type: str                                # span | yes | no
    answer_text: str
    answer_span: tuple[int, int] | None             # inclusive token indices
    sup_labels: list[int]                           # aligned with sentence_spans
    gold_sup: list[tuple[str, int]]                 # (title, sentence id) pairs
    answers: list[str]                              # gold strings for scoring

    @property
    def n_tokens(self) -> int:
        return len(self.context_tokens)

    def sentence_title(self, k: int) -> tuple[str, int]:
        span = self.sentence_spans[k]
        title = self.doc_boundaries[span.doc_index][0]
        return title, span.sent_index


@dataclass
class LoadStats:
    answers_not_found: int = 0
    sup_dropped: int = 0
    offsets_snapped: int = 0
    empty_sentences: int = 0

    @property
    def warnings_total(self) -> int:
        return sum(getattr(self, f.name) for f in fields(self))

    def require_clean(self, where: str) -> None:
        """Raise ``DataError`` naming every nonzero counter, if any is."""
        nonzero = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)
                   if getattr(self, f.name)]
        if nonzero:
            raise DataError(f"{where}: records loaded with warnings: {', '.join(nonzero)}")


def _char_span_to_tokens(tokens: list[Token], lo: int, hi: int) -> tuple[int, int] | None:
    """Smallest token range covering chars [lo, hi); None if no overlap."""
    first = last = None
    for k, tok in enumerate(tokens):
        if tok.end > lo and tok.start < hi:
            if first is None:
                first = k
            last = k
    if first is None:
        return None
    return first, last


def _locate_answer(answer: str, sent_texts: list[str], sent_tokens: list[list[Token]],
                   spans: list[SentenceSpan], preferred: set[int]) -> tuple[int, int] | None:
    """First case-insensitive occurrence of ``answer``, preferring the
    given sentence indices; returns inclusive global token indices. The
    match is found in the original text, whose offsets the tokens carry:
    lowercasing can change a string's length."""
    needle = re.compile(re.escape(answer), re.IGNORECASE)
    order = [k for k in range(len(spans)) if k in preferred]
    order += [k for k in range(len(spans)) if k not in preferred]
    for k in order:
        match = needle.search(sent_texts[k])
        if match is None:
            continue
        hit = _char_span_to_tokens(sent_tokens[k], *match.span())
        if hit is None:
            continue
        base = spans[k].start
        return base + hit[0], base + hit[1]
    return None


def _check_type(value, kind: type, where: str, name: str) -> None:
    """Raise ``DataError`` unless ``value``, the field ``name``, is a ``kind``.
    The message shows ``value`` abridged, as it may be a whole dataset."""
    if not isinstance(value, kind):
        raise DataError(f"{where}: field {name!r} must be a {kind.__name__}, "
                        f"got {type(value).__name__} {reprlib.repr(value)}")


def _example_from_hotpot_record(rec: dict, index: int, stats: LoadStats,
                                source: str) -> Example:
    try:
        rec_id = str(rec["_id"])
        question = rec["question"]
        answer = rec["answer"]
        context = rec["context"]
        supporting = rec.get("supporting_facts", [])
    except (KeyError, TypeError) as exc:
        raise DataError(f"{source}: record {index}: missing field {exc}") from exc
    where = f"{source}: record {index} ({rec_id!r})"
    _check_type(question, str, where, "question")
    _check_type(answer, str, where, "answer")
    _check_type(context, list, where, "context")
    _check_type(supporting, list, where, "supporting_facts")

    question_tokens = [t.text for t in tokenize(question)]
    context_tokens: list[str] = []
    doc_boundaries: list[tuple[str, int, int]] = []
    spans: list[SentenceSpan] = []
    sent_texts: list[str] = []
    sent_tokens: list[list[Token]] = []
    for doc_idx, entry in enumerate(context):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], (list, tuple))
                and all(isinstance(sent, str) for sent in entry[1])):
            raise DataError(f"{where}: context entry {doc_idx} is not "
                            f"[title, [sentences]]: {reprlib.repr(entry)}")
        title, sentences = entry
        doc_start = len(context_tokens)
        for sid, sent in enumerate(sentences):
            toks = tokenize(sent)
            if not toks:
                stats.empty_sentences += 1
                continue
            start = len(context_tokens)
            context_tokens.extend(t.text for t in toks)
            spans.append(SentenceSpan(start, len(context_tokens), doc_idx, sid))
            sent_texts.append(sent)
            sent_tokens.append(toks)
        doc_boundaries.append((title, doc_start, len(context_tokens)))

    by_title_sid = {(doc_boundaries[s.doc_index][0], s.sent_index): k
                    for k, s in enumerate(spans)}
    sup_labels = [0] * len(spans)
    gold_sup: list[tuple[str, int]] = []
    for fact in supporting:
        try:
            doc, sid = fact
            key = (doc, int(sid))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{where}: supporting fact {reprlib.repr(fact)} is not "
                            "[title, sentence id]") from exc
        k = by_title_sid.get(key)
        if k is None:
            stats.sup_dropped += 1
            continue
        sup_labels[k] = 1
        gold_sup.append(key)

    answer_clean = answer.strip()
    if answer_clean.lower() in ("yes", "no"):
        answer_type = answer_clean.lower()
        answer_span = None
    else:
        answer_type = "span"
        preferred = {k for k, lab in enumerate(sup_labels) if lab}
        answer_span = _locate_answer(answer_clean, sent_texts, sent_tokens, spans, preferred)
        if answer_span is None:
            stats.answers_not_found += 1

    return Example(id=rec_id, question_tokens=question_tokens,
                   context_tokens=context_tokens, doc_boundaries=doc_boundaries,
                   sentence_spans=spans, answer_type=answer_type,
                   answer_text=answer_clean, answer_span=answer_span,
                   sup_labels=sup_labels, gold_sup=gold_sup, answers=[answer_clean])


def examples_from_hotpot_records(records: list, stats: LoadStats | None = None,
                                 source: str = "hotpotqa") -> tuple[list[Example], LoadStats]:
    """Examples from HotpotQA-schema records. A malformed record raises
    ``DataError`` naming ``source`` (the file, for ``load_hotpotqa``)."""
    stats = stats or LoadStats()
    _check_type(records, list, source, "top-level JSON")
    return [_example_from_hotpot_record(r, i, stats, source)
            for i, r in enumerate(records)], stats


def load_hotpotqa(path: str) -> tuple[list[Example], LoadStats]:
    """Parse a HotpotQA-schema JSON file into examples."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: JSON parse error at line {exc.lineno}: {exc.msg}") from exc
    return examples_from_hotpot_records(records, source=path)


# ---------------------------------------------------------------------------
# SQuAD


_SENT_END = {".", "!", "?"}


def _split_sentences(tokens: list[Token]) -> list[tuple[int, int]]:
    bounds: list[tuple[int, int]] = []
    start = 0
    for k, tok in enumerate(tokens):
        if tok.text in _SENT_END:
            bounds.append((start, k + 1))
            start = k + 1
    if start < len(tokens):
        bounds.append((start, len(tokens)))
    return bounds


def load_squad(path: str) -> tuple[list[Example], LoadStats]:
    """Parse SQuAD v1.1 JSON; char answer offsets are snapped to covering
    tokens (counted when not already aligned). Supporting-fact labels stay
    empty: the single paragraph is one document. A question without answers,
    or a missing or wrong-typed field at any level from the top-level object
    down, raises ``DataError`` naming ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: JSON parse error at line {exc.lineno}: {exc.msg}") from exc
    _check_type(payload, dict, path, "top-level JSON")
    articles = payload.get("data", [])
    _check_type(articles, list, path, "data")
    stats = LoadStats()
    examples: list[Example] = []
    for article_idx, article in enumerate(articles):
        _check_type(article, dict, path, f"data[{article_idx}]")
        title = article.get("title", "untitled")
        _check_type(title, str, f"{path}: article {article_idx}", "title")
        paragraphs = article.get("paragraphs", [])
        _check_type(paragraphs, list, f"{path}: article {article_idx}", "paragraphs")
        for para_idx, para in enumerate(paragraphs):
            where = f"{path}: article {article_idx} paragraph {para_idx}"
            try:
                context = para["context"]
            except (KeyError, TypeError) as exc:
                raise DataError(f"{where}: missing field {exc}") from exc
            _check_type(context, str, where, "context")
            toks = tokenize(context)
            texts = [t.text for t in toks]
            spans = [SentenceSpan(s, e, 0, i)
                     for i, (s, e) in enumerate(_split_sentences(toks))]
            qas = para.get("qas", [])
            _check_type(qas, list, where, "qas")
            for qa_idx, qa in enumerate(qas):
                try:
                    qid = str(qa["id"])
                    question = qa["question"]
                except (KeyError, TypeError) as exc:
                    raise DataError(f"{where} question {qa_idx}: missing field {exc}") from exc
                _check_type(question, str, f"{path}: question {qid!r}", "question")
                question_tokens = [t.text for t in tokenize(question)]
                if not qa.get("answers"):
                    raise DataError(f"{path}: question {qid!r} has no answers")
                try:
                    answer_texts = [a["text"] for a in qa["answers"]]
                    first = qa["answers"][0]
                    lo = int(first["answer_start"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise DataError(f"{path}: question {qid!r}: malformed answer "
                                    f"({type(exc).__name__}: {exc})") from exc
                for text in answer_texts:
                    _check_type(text, str, f"{path}: question {qid!r} answer", "text")
                answers = list(dict.fromkeys(answer_texts))
                hi = lo + len(first["text"])
                hit = _char_span_to_tokens(toks, lo, hi)
                if hit is None:
                    stats.answers_not_found += 1
                    span = None
                else:
                    span = hit
                    if toks[hit[0]].start != lo or toks[hit[1]].end != hi:
                        stats.offsets_snapped += 1
                examples.append(Example(
                    id=qid, question_tokens=question_tokens,
                    context_tokens=list(texts),
                    doc_boundaries=[(title, 0, len(texts))],
                    sentence_spans=list(spans), answer_type="span",
                    answer_text=first["text"], answer_span=span,
                    sup_labels=[0] * len(spans), gold_sup=[],
                    answers=answers))
    return examples, stats


# ---------------------------------------------------------------------------
# vocabulary


@dataclass
class Vocab:
    word_to_id: dict[str, int]
    char_to_id: dict[str, int]
    word_freq: Counter = field(default_factory=Counter)

    @property
    def n_words(self) -> int:
        return len(self.word_to_id) + 2

    @property
    def n_chars(self) -> int:
        return len(self.char_to_id) + 2

    def word_id(self, token: str) -> int:
        return self.word_to_id.get(token.lower(), UNK_ID)

    def char_id(self, ch: str) -> int:
        return self.char_to_id.get(ch, UNK_ID)


def build_vocab(examples: Iterable[Example], min_freq: int = 1) -> Vocab:
    """Deterministic vocabulary: words with frequency >= min_freq ordered by
    (freq desc, word asc); lookups are lowercased, characters keep case."""
    wfreq: Counter = Counter()
    cfreq: Counter = Counter()
    for ex in examples:
        for toks in (ex.question_tokens, ex.context_tokens):
            wfreq.update(map(str.lower, toks))
            cfreq.update("".join(toks))
    words = sorted((w for w, c in wfreq.items() if c >= min_freq),
                   key=lambda w: (-wfreq[w], w))
    chars = sorted(cfreq, key=lambda c: (-cfreq[c], c))
    return Vocab(word_to_id={w: i + 2 for i, w in enumerate(words)},
                 char_to_id={c: i + 2 for i, c in enumerate(chars)},
                 word_freq=wfreq)


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """Padded arrays of a list of examples. ``token_words`` and
    ``token_chars`` are the batch's token table, row 0 the padding token;
    ``context_tokens`` and ``question_tokens`` hold each position's row."""

    examples: list[Example]
    token_words: np.ndarray         # (N,) int64 word id per table row
    token_chars: np.ndarray         # (N, W) int64 char ids per table row
    context_tokens: np.ndarray      # (B, T) int64 table row per position
    question_tokens: np.ndarray     # (B, J)
    context_mask: np.ndarray        # (B, T) float32
    question_mask: np.ndarray       # (B, J)
    sentence_bounds: np.ndarray     # (B, S, 2) first/last token index, inclusive
    sentence_mask: np.ndarray       # (B, S)
    y_type: np.ndarray              # (B,)
    y_start: np.ndarray             # (B,)
    y_end: np.ndarray               # (B,)
    span_mask: np.ndarray           # (B,) 1.0 where the gold span is usable
    sup_labels: np.ndarray          # (B, S)

    @property
    def size(self) -> int:
        return len(self.examples)


@dataclass
class BatchStats:
    truncated_examples: int = 0
    spans_lost_to_truncation: int = 0


def truncate_example(ex: Example, max_tokens: int) -> tuple[Example, bool, bool]:
    """Drop trailing whole sentences until the context fits ``max_tokens``.

    Returns (example, truncated?, span_lost?)."""
    if ex.n_tokens <= max_tokens:
        return ex, False, False
    spans = [s for s in ex.sentence_spans if s.end <= max_tokens]
    cut = spans[-1].end if spans else 0
    docs = [(title, s, min(e, cut)) for (title, s, e) in ex.doc_boundaries if s < cut]
    span = ex.answer_span
    span_lost = False
    if span is not None and span[1] >= cut:
        span = None
        span_lost = ex.answer_type == "span"
    trimmed = Example(
        id=ex.id, question_tokens=ex.question_tokens,
        context_tokens=ex.context_tokens[:cut], doc_boundaries=docs,
        sentence_spans=spans, answer_type=ex.answer_type,
        answer_text=ex.answer_text, answer_span=span,
        sup_labels=ex.sup_labels[:len(spans)], gold_sup=ex.gold_sup,
        answers=ex.answers)
    return trimmed, True, span_lost


def _word_chars(token: str, vocab: Vocab, width: int) -> list[int]:
    ids = [vocab.char_id(c) for c in token[:width]]
    return ids + [PAD_ID] * (width - len(ids))


def _token_table(seqs: list[list[str]], vocab: Vocab, width: int
                 ) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """The table of distinct tokens of ``seqs``: word ids (N,) and char ids
    (N, width), row 0 the padding token, and each sequence's row indices.
    Each distinct token is looked up once."""
    index: dict[str, int] = {}
    rows = [[index.setdefault(tok, len(index) + 1) for tok in seq] for seq in seqs]
    words = np.array([PAD_ID] + [vocab.word_id(tok) for tok in index], dtype=np.int64)
    chars = np.array([[PAD_ID] * width] + [_word_chars(tok, vocab, width) for tok in index],
                     dtype=np.int64)
    return words, chars, rows


def _positions(rows: list[list[int]], length: int) -> np.ndarray:
    """Row indices of sequences, zero-padded (the padding row) to ``length``."""
    out = np.zeros((len(rows), length), dtype=np.int64)
    for i, seq in enumerate(rows):
        out[i, :len(seq)] = seq
    return out


def make_batches(examples: list[Example], vocab: Vocab, batch_size: int,
                 max_context_tokens: int = MAX_CONTEXT_TOKENS,
                 max_word_len: int = 16, rng: np.random.Generator | None = None,
                 shuffle: bool = False) -> tuple[list[Batch], BatchStats]:
    """Pad examples into fixed arrays per batch, each batch with its token
    table. Training mode shuffles with the given rng; otherwise file order
    is kept. Raises ``ValueError`` for a ``batch_size`` below 1, and
    ``DataError`` for an example left with no context tokens (empty, or a
    first sentence longer than ``max_context_tokens``) or with no question
    tokens."""
    if batch_size < 1:
        raise ValueError(f"make_batches: batch_size must be >= 1, got {batch_size}")
    stats = BatchStats()
    prepared: list[Example] = []
    for ex in examples:
        if not ex.question_tokens:
            raise DataError(f"make_batches: example {ex.id!r} has no question tokens")
        trimmed, truncated, span_lost = truncate_example(ex, max_context_tokens)
        if trimmed.n_tokens == 0:
            raise DataError(f"make_batches: example {ex.id!r} has no context tokens "
                            f"within the {max_context_tokens}-token cap")
        stats.truncated_examples += int(truncated)
        stats.spans_lost_to_truncation += int(span_lost)
        prepared.append(trimmed)
    order = np.arange(len(prepared))
    if shuffle:
        if rng is None:
            raise ValueError("make_batches: shuffle requires an rng")
        rng.shuffle(order)
    batches: list[Batch] = []
    for lo in range(0, len(prepared), batch_size):
        chunk = [prepared[i] for i in order[lo:lo + batch_size]]
        batches.append(_assemble(chunk, vocab, max_word_len))
    return batches, stats


def _assemble(chunk: list[Example], vocab: Vocab, w: int) -> Batch:
    b = len(chunk)
    t_max = max(ex.n_tokens for ex in chunk)
    j_max = max(len(ex.question_tokens) for ex in chunk)
    s_max = max(len(ex.sentence_spans) for ex in chunk)

    words, chars, rows = _token_table([ex.context_tokens for ex in chunk]
                                      + [ex.question_tokens for ex in chunk], vocab, w)
    cmask = np.zeros((b, t_max), dtype=np.float32)
    qmask = np.zeros((b, j_max), dtype=np.float32)
    sbounds = np.zeros((b, s_max, 2), dtype=np.int64)
    smask = np.zeros((b, s_max), dtype=np.float32)
    y_type = np.zeros(b, dtype=np.int64)
    y_start = np.zeros(b, dtype=np.int64)
    y_end = np.zeros(b, dtype=np.int64)
    span_mask = np.zeros(b, dtype=np.float32)
    sup = np.zeros((b, s_max), dtype=np.float32)

    for i, ex in enumerate(chunk):
        cmask[i, :ex.n_tokens] = 1.0
        qmask[i, :len(ex.question_tokens)] = 1.0
        for k, span in enumerate(ex.sentence_spans):
            sbounds[i, k] = (span.start, span.end - 1)
            smask[i, k] = 1.0
            sup[i, k] = ex.sup_labels[k]
        y_type[i] = ANSWER_TYPES.index(ex.answer_type)
        if ex.answer_type == "span" and ex.answer_span is not None:
            y_start[i], y_end[i] = ex.answer_span
            span_mask[i] = 1.0
    return Batch(examples=chunk, token_words=words, token_chars=chars,
                 context_tokens=_positions(rows[:b], t_max),
                 question_tokens=_positions(rows[b:], j_max), context_mask=cmask,
                 question_mask=qmask, sentence_bounds=sbounds,
                 sentence_mask=smask, y_type=y_type, y_start=y_start,
                 y_end=y_end, span_mask=span_mask, sup_labels=sup)


# ---------------------------------------------------------------------------
# synthetic two-hop data


_SYLLABLES = ["ba", "den", "fil", "gor", "han", "jas", "kel", "lum", "mar",
              "nor", "pel", "quin", "ras", "sil", "tor", "vel", "wex", "yor",
              "zan", "bri"]
_CITIES = ["Ashford", "Brinmore", "Caldia", "Dunwell", "Eastmere", "Farholt"]
_UNITS = ["million", "thousand"]


def _pick(rng: np.random.Generator, options: list[str]) -> str:
    """One of ``options``, drawing what ``rng.choice(options)`` draws
    without converting the list to an array."""
    return options[rng.integers(len(options))]


def _coin_word(rng: np.random.Generator) -> str:
    n = int(rng.integers(2, 4))
    return "".join(_pick(rng, _SYLLABLES) for _ in range(n)).capitalize()


def _artist_doc(title: str, value: str, city: str, year: int) -> list[str]:
    return [f"{title} grew up in {city} and began performing in {year}.",
            f"To date {title} has sold over {value} records worldwide."]


def _album_doc(title: str, artist: str, year: int) -> list[str]:
    return [f"{title} is the debut album by rapper {artist}.",
            f"The album was released in {year} to wide acclaim."]


def synth_two_hop_records(n: int, seed: int, n_distractors: int = 2) -> list[dict]:
    """Bridge-style records in the HotpotQA schema: the question names an
    album, the album's document names its artist, and the artist's document
    carries the sales figure that answers the question. For existing seeds
    the output is pinned by ``test_synth_records_examples_and_vocab_are_pinned``
    in ``tests/test_data.py``."""
    if n < 1:
        raise ValueError("synth_two_hop: n must be >= 1")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        album = _coin_word(rng) + " " + _coin_word(rng)
        artist = _coin_word(rng) + " " + _coin_word(rng)
        value = f"{int(rng.integers(2, 100))} {_pick(rng, _UNITS)}"
        year = int(rng.integers(1980, 2021))
        city = _pick(rng, _CITIES)
        docs = [(album, _album_doc(album, artist, year)),
                (artist, _artist_doc(artist, value, city, year + 1))]
        for _ in range(n_distractors):
            d_album = _coin_word(rng) + " " + _coin_word(rng)
            d_artist = _coin_word(rng) + " " + _coin_word(rng)
            d_value = f"{int(rng.integers(2, 100))} {_pick(rng, _UNITS)}"
            d_year = int(rng.integers(1980, 2021))
            if rng.random() < 0.5:
                docs.append((d_album, _album_doc(d_album, d_artist, d_year)))
            else:
                docs.append((d_artist, _artist_doc(d_artist, d_value,
                                                   _pick(rng, _CITIES), d_year)))
        perm = rng.permutation(len(docs))
        records.append({
            "_id": f"synth-{seed}-{i}",
            "question": (f"The rapper whose debut album is {album} has sold "
                         "over how many records worldwide?"),
            "answer": value,
            "context": [[docs[k][0], docs[k][1]] for k in perm],
            "supporting_facts": [[album, 0], [artist, 1]],
            "type": "bridge",
            "level": "synthetic",
        })
    return records


def synth_two_hop(n: int, seed: int, n_distractors: int = 2) -> list[Example]:
    records = synth_two_hop_records(n, seed, n_distractors)
    examples, stats = examples_from_hotpot_records(records)
    stats.require_clean("synth_two_hop")
    return examples
