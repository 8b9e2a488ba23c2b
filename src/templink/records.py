"""Corpus ingest: entity descriptions, mention contexts, relation triples.

Canonical on-disk format is UTF-8 tab-separated values with backslash
escapes (``\\t``, ``\\n``, ``\\\\``) inside text fields, one record per
line. Row order is file order and is what every downstream matrix keys
on, so the qid-to-row assignment is persisted as a manifest.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .checkpoint import atomic_open

log = logging.getLogger(__name__)

CATEGORIES = ("continual", "new")


class DataError(Exception):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class EntityRecord:
    qid: str
    title: str
    description: str
    year: int


@dataclass(frozen=True)
class MentionRecord:
    context_left: str
    mention: str
    context_right: str
    gold_qid: str
    category: str
    year: int


def escape_field(s: str) -> str:
    return s.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


_ESCAPED = re.compile(r"\\([tn\\])")
_UNESCAPED = {"t": "\t", "n": "\n", "\\": "\\"}


def unescape_field(s: str) -> str:
    """Undo ``escape_field``; a backslash before any other character stays."""
    if "\\" not in s:
        return s
    return _ESCAPED.sub(lambda m: _UNESCAPED[m.group(1)], s)


def _read_rows(path, n_fields, what):
    """Yield ``(lineno, fields)`` for each non-blank line, fields unescaped
    (only a line holding a backslash has anything to unescape)."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise DataError(
                    f"{path}:{lineno}: malformed {what} line, "
                    f"expected {n_fields} fields, got {len(parts)}")
            if "\\" in line:
                parts = [unescape_field(p) for p in parts]
            yield lineno, parts


def load_entities(path, year: int) -> list[EntityRecord]:
    """Parse ``qid \\t title \\t description`` lines; duplicate qids rejected."""
    records = []
    first_line = {}
    for lineno, (qid, title, description) in _read_rows(path, 3, "entity"):
        if not qid:
            raise DataError(f"{path}:{lineno}: empty qid")
        if qid in first_line:
            raise DataError(f"{path}:{lineno}: duplicate qid {qid} "
                            f"(first on line {first_line[qid]})")
        first_line[qid] = lineno
        records.append(EntityRecord(qid=qid, title=title,
                                    description=description, year=year))
    return records


def _mention(path, lineno, row, year):
    """The checked mention record of ``row``, its fields in TSV order."""
    gold_qid, category, left, mention, right = row
    if category not in CATEGORIES:
        raise DataError(f"{path}:{lineno}: unknown category {category!r}")
    if not mention:
        raise DataError(f"{path}:{lineno}: empty mention span")
    return MentionRecord(context_left=left, mention=mention,
                         context_right=right, gold_qid=gold_qid,
                         category=category, year=year)


def load_mentions(path, year: int) -> list[MentionRecord]:
    """Parse ``gold_qid \\t category \\t context_left \\t mention \\t context_right``."""
    return [_mention(path, lineno, row, year)
            for lineno, row in _read_rows(path, 5, "mention")]


def load_triples(path) -> list[tuple]:
    """Parse ``head \\t relation \\t tail`` lines into ``(head, relation,
    tail)`` tuples; endpoint filtering happens later."""
    triples = []
    for lineno, row in _read_rows(path, 3, "triple"):
        if not all(row):
            raise DataError(f"{path}:{lineno}: empty field in triple {row}")
        triples.append(tuple(row))
    return triples


def _write_rows(rows, path):
    """Write each row, a tuple of text fields, as one escaped TSV line."""
    with atomic_open(path, text=True) as fh:
        for row in rows:
            fh.write("\t".join(map(escape_field, row)) + "\n")


def save_entities(records, path):
    _write_rows(((r.qid, r.title, r.description) for r in records), path)


def save_mentions(records, path):
    _write_rows(((r.gold_qid, r.category, r.context_left, r.mention,
                  r.context_right) for r in records), path)


def save_triples(triples, path):
    _write_rows(triples, path)


class EntityIndex:
    """Bijective qid <-> row mapping; row i is the i-th entity in input order."""

    def __init__(self, qids):
        self.qid_to_row = {}
        for i, qid in enumerate(qids):
            if qid in self.qid_to_row:
                raise DataError(f"duplicate qid {qid} in entity index")
            self.qid_to_row[qid] = i
        self.row_to_qid = list(qids)

    def __len__(self):
        return len(self.row_to_qid)

    def __contains__(self, qid):
        return qid in self.qid_to_row

    def row(self, qid):
        return self.qid_to_row[qid]

    def save(self, path):
        with atomic_open(path) as fh:
            fh.write("".join(q + "\n" for q in self.row_to_qid).encode("utf-8"))


def build_entity_index(entities) -> EntityIndex:
    return EntityIndex([e.qid for e in entities])


def filter_mentions(mentions, index: EntityIndex):
    """Drop mentions whose gold qid is not in the snapshot index."""
    kept = [m for m in mentions if m.gold_qid in index]
    dropped = len(mentions) - len(kept)
    if dropped:
        log.info("dropped %d mentions with unresolvable gold qids", dropped)
    return kept, dropped


def _text(path, lineno, obj, *keys):
    """The first non-empty value of ``obj`` under ``keys``, else ``""``; a
    non-string one under any is a ``DataError`` naming path:lineno and key."""
    for key in keys:
        if not isinstance(obj.get(key, ""), str):
            raise DataError(f"{path}:{lineno}: {key} is "
                            f"{json.dumps(obj[key])}, not a string")
    return next(filter(None, map(obj.get, keys)), "")


def _read_jsonl(path):
    """Yield ``(lineno, text)`` for each non-blank line of a JSON-lines file,
    ``text(*keys)`` being ``_text`` of the line's object. A line that is not
    a JSON object is a ``DataError`` naming path:lineno."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object, "
                                f"got {type(obj).__name__}")
            yield lineno, partial(_text, path, lineno, obj)


def read_jsonl_entities(src_path, year: int) -> list[EntityRecord]:
    """The entity records of a JSON-lines dump; a repeated qid keeps its
    first line.

    Accepted keys per object: qid (or label_qid / entity_qid), title
    (or label_title / label), and description (or text).
    """
    records = []
    seen = set()
    for lineno, text in _read_jsonl(src_path):
        qid = text("qid", "label_qid", "entity_qid")
        if not qid:
            raise DataError(f"{src_path}:{lineno}: no qid key")
        if qid in seen:
            log.info("skipping repeated qid %s at line %d", qid, lineno)
            continue
        seen.add(qid)
        records.append(EntityRecord(
            qid=qid, title=text("title", "label_title", "label"),
            description=text("description", "text"), year=year))
    return records


def read_jsonl_mentions(src_path, year: int) -> list[MentionRecord]:
    """The mention records of a JSON-lines dump."""
    records = []
    for lineno, text in _read_jsonl(src_path):
        gold = text("gold_qid", "label_qid", "qid")
        if not gold:
            raise DataError(f"{src_path}:{lineno}: no gold qid key")
        records.append(_mention(src_path, lineno, (
            gold, text("category") or "continual", text("context_left"),
            text("mention"), text("context_right")), year))
    return records
