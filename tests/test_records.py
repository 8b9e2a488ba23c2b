import pytest
from hypothesis import given
from hypothesis import strategies as st

from templink import records
from templink.checkpoint import write_csv, write_json
from templink.records import (DataError, EntityRecord, MentionRecord,
                              build_entity_index, escape_field,
                              filter_mentions, load_entities, load_mentions,
                              load_triples, unescape_field)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEntities:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path / "e.tsv",
                  "Q1\tApple Inc.\tAmerican technology company\n"
                  "Q2\tApple\tEdible fruit\n")
        ents = load_entities(p, 2020)
        assert [e.qid for e in ents] == ["Q1", "Q2"]
        assert ents[0].title == "Apple Inc."
        assert ents[1].description == "Edible fruit"
        assert all(e.year == 2020 for e in ents)

    def test_empty_file(self, tmp_path):
        assert load_entities(write(tmp_path / "e.tsv", ""), 2020) == []

    def test_mixed_escaped_and_plain_lines(self, tmp_path):
        p = write(tmp_path / "e.tsv",
                  "Q1\tPlain\tno escapes\n"
                  "Q2\tTab\\there\tline\\nbreak, back\\\\slash\n"
                  "Q3\tplain title\tunknown \\q stays\n"
                  "Q4\tPlain again\twords\n")
        ents = load_entities(p, 2020)
        assert [(e.qid, e.title, e.description) for e in ents] == [
            ("Q1", "Plain", "no escapes"),
            ("Q2", "Tab\there", "line\nbreak, back\\slash"),
            ("Q3", "plain title", "unknown \\q stays"),
            ("Q4", "Plain again", "words")]

    def test_duplicate_qid(self, tmp_path):
        p = write(tmp_path / "e.tsv", "Q1\ta\tb\nQ1\tc\td\n")
        with pytest.raises(DataError, match="Q1"):
            load_entities(p, 2020)

    def test_malformed_line_number(self, tmp_path):
        p = write(tmp_path / "e.tsv", "Q1\ta\tb\nQ2\tonly-two\n")
        with pytest.raises(DataError, match=":2"):
            load_entities(p, 2020)

    def test_empty_qid_names_line(self, tmp_path):
        p = write(tmp_path / "e.tsv", "Q1\ta\tb\n\n\tc\td\n")
        with pytest.raises(DataError, match=r"e\.tsv:3: empty qid$"):
            load_entities(p, 2020)

    def test_duplicate_qid_names_both_lines(self, tmp_path):
        p = write(tmp_path / "e.tsv", "Q1\ta\tb\nQ2\tc\td\nQ1\te\tf\n")
        with pytest.raises(DataError, match=r"e\.tsv:3: duplicate qid Q1 "
                                            r"\(first on line 1\)$"):
            load_entities(p, 2020)


class TestLoadMentions:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path / "m.tsv", "Q7\tnew\tthe\tWildcats\tfootball team\n")
        (m,) = load_mentions(p, 2021)
        assert m.category == "new"
        assert m.mention == "Wildcats"
        assert m.gold_qid == "Q7"

    def test_unknown_category(self, tmp_path):
        p = write(tmp_path / "m.tsv", "Q7\told\ta\tb\tc\n")
        with pytest.raises(DataError, match="old"):
            load_mentions(p, 2021)

    def test_missing_field(self, tmp_path):
        p = write(tmp_path / "m.tsv", "Q7\tnew\ta\tb\n")
        with pytest.raises(DataError, match=":1"):
            load_mentions(p, 2021)

    def test_unknown_category_names_line(self, tmp_path):
        p = write(tmp_path / "m.tsv", "Q7\tnew\ta\tb\tc\nQ8\tbogus\ta\tb\tc\n")
        with pytest.raises(DataError, match=r"m\.tsv:2: unknown category 'bogus'$"):
            load_mentions(p, 2021)

    def test_empty_mention_names_line(self, tmp_path):
        p = write(tmp_path / "m.tsv", "Q7\tnew\ta\tb\tc\nQ8\tnew\ta\t\tc\n")
        with pytest.raises(DataError, match=r"m\.tsv:2: empty mention span$"):
            load_mentions(p, 2021)


class TestLoadTriples:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path / "t.tsv", "Q1\tP31\tQ2\n")
        assert load_triples(p) == [("Q1", "P31", "Q2")]

    def test_empty_file(self, tmp_path):
        assert load_triples(write(tmp_path / "t.tsv", "")) == []

    def test_malformed(self, tmp_path):
        with pytest.raises(DataError):
            load_triples(write(tmp_path / "t.tsv", "Q1\tP31\n"))

    def test_empty_field_names_line(self, tmp_path):
        p = write(tmp_path / "t.tsv", "Q1\tP31\tQ2\nQ1\t\tQ2\n")
        with pytest.raises(DataError, match=r"t\.tsv:2: empty field in triple "
                                            r"\['Q1', '', 'Q2'\]$"):
            load_triples(p)


class TestEntityIndex:
    def test_enumeration(self):
        ents = [EntityRecord(q, "", "", 2020) for q in ("Q1", "Q2", "Q3")]
        idx = build_entity_index(ents)
        assert idx.qid_to_row == {"Q1": 0, "Q2": 1, "Q3": 2}

    def test_empty(self):
        assert len(build_entity_index([])) == 0

    def test_duplicate(self):
        ents = [EntityRecord("Q1", "", "", 2020)] * 2
        with pytest.raises(DataError):
            build_entity_index(ents)

    def test_bijection(self):
        idx = records.EntityIndex([f"Q{i}" for i in range(10)])
        for i in range(10):
            assert idx.row(idx.row_to_qid[i]) == i

    def test_save_manifest_bytes(self, tmp_path):
        idx = records.EntityIndex(["Q5", "Q1", "Q9"])
        idx.save(tmp_path / "index.manifest")
        assert (tmp_path / "index.manifest").read_bytes() == b"Q5\nQ1\nQ9\n"


text_field = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    max_size=40)


def unescape_loop(s):
    """Reference: the character loop ``unescape_field`` replaced."""
    out = []
    i = 0
    while i < len(s):
        c = s[i]
        if c == "\\" and i + 1 < len(s):
            nxt = s[i + 1]
            if nxt == "t":
                out.append("\t")
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
        out.append(c)
        i += 1
    return "".join(out)


class TestRoundTrip:
    @given(text_field)
    def test_escape_roundtrip(self, s):
        assert unescape_field(escape_field(s)) == s
        assert "\t" not in escape_field(s)
        assert "\n" not in escape_field(s)

    @given(st.text(alphabet=st.sampled_from("\\tnx\t\né"), max_size=30))
    def test_unescape_matches_loop(self, s):
        assert unescape_field(s) == unescape_loop(s)
        assert unescape_field(escape_field(s)) == s

    @pytest.mark.parametrize("s, want", [
        ("a\\", "a\\"),          # trailing backslash stays
        ("\\\\t", "\\t"),         # escaped backslash, then a plain t
        ("\\x\\q", "\\x\\q"),     # unknown escapes stay
        ("\\t\\n\\\\", "\t\n\\"),
    ])
    def test_unescape_cases(self, s, want):
        assert unescape_field(s) == unescape_loop(s) == want

    @given(st.lists(st.tuples(st.text("ab", min_size=1, max_size=4),
                              text_field, text_field),
                    max_size=8))
    def test_entity_roundtrip(self, rows):
        import tempfile
        from pathlib import Path
        # make qids unique
        ents = [EntityRecord(f"Q{i}_{q}", t, d, 2020)
                for i, (q, t, d) in enumerate(rows)]
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "e.tsv"
            records.save_entities(ents, p)
            assert load_entities(p, 2020) == ents

    def test_mention_roundtrip(self, tmp_path):
        ms = [MentionRecord("a\tb", "m", "c\nd", "Q1", "new", 2020),
              MentionRecord("", "x", "", "Q2", "continual", 2020)]
        p = tmp_path / "m.tsv"
        records.save_mentions(ms, p)
        assert load_mentions(p, 2020) == ms

    def test_triple_roundtrip(self, tmp_path):
        ts = [("Q1", "P1", "Q2"), ("Q3", "P9", "Q1")]
        p = tmp_path / "t.tsv"
        records.save_triples(ts, p)
        assert load_triples(p) == ts


class TestFilterMentions:
    def test_drops_unresolvable(self):
        idx = records.EntityIndex(["Q1"])
        ms = [MentionRecord("", "a", "", "Q1", "new", 2020),
              MentionRecord("", "b", "", "Q404", "new", 2020)]
        kept, dropped = filter_mentions(ms, idx)
        assert kept == [ms[0]]
        assert dropped == 1


class TestIngest:
    def test_jsonl_entities(self, tmp_path):
        src = write(tmp_path / "e.jsonl",
                    '{"qid": "Q1", "title": "A", "text": "desc a"}\n'
                    '{"qid": "Q2", "label": "B", "description": "desc b"}\n')
        ents = records.read_jsonl_entities(src, 2020)
        assert len(ents) == 2
        records.save_entities(ents, tmp_path / "e.tsv")
        ents = load_entities(tmp_path / "e.tsv", 2020)
        assert ents[0].description == "desc a"
        assert ents[1].title == "B"

    def test_jsonl_idempotent(self, tmp_path):
        src = write(tmp_path / "e.jsonl", '{"qid": "Q1", "title": "A"}\n')
        records.save_entities(records.read_jsonl_entities(src, 2020),
                              tmp_path / "e.tsv")
        first = (tmp_path / "e.tsv").read_bytes()
        records.save_entities(records.read_jsonl_entities(src, 2020),
                              tmp_path / "e.tsv")
        assert (tmp_path / "e.tsv").read_bytes() == first

    def test_jsonl_mentions(self, tmp_path):
        src = write(tmp_path / "m.jsonl",
                    '{"gold_qid": "Q1", "category": "new", "mention": "x",'
                    ' "context_left": "l", "context_right": "r"}\n')
        ms = records.read_jsonl_mentions(src, 2020)
        assert len(ms) == 1
        records.save_mentions(ms, tmp_path / "m.tsv")
        (m,) = load_mentions(tmp_path / "m.tsv", 2020)
        assert (m.context_left, m.mention, m.context_right) == ("l", "x", "r")


def failing_after(items, n):
    """The first ``n`` items, then a crash, as an ingest that dies midway."""
    yield from items[:n]
    raise RuntimeError("crash mid-write")


SAVERS = {
    "entities": (records.save_entities,
                 [EntityRecord("Q1", "a\tb", "d", 2020),
                  EntityRecord("Q2", "", "e\\f", 2020)],
                 b"Q1\ta\\tb\td\nQ2\t\te\\\\f\n"),
    "mentions": (records.save_mentions,
                 [MentionRecord("l", "m", "r\n", "Q1", "new", 2020),
                  MentionRecord("", "x", "", "Q2", "continual", 2020)],
                 b"Q1\tnew\tl\tm\tr\\n\nQ2\tcontinual\t\tx\t\n"),
    "triples": (records.save_triples,
                [("Q1", "P1", "Q2"), ("Q3", "P9", "Q1")],
                b"Q1\tP1\tQ2\nQ3\tP9\tQ1\n"),
    "csv": (lambda rows, p: write_csv(p, ["n", "text"], rows),
            [[1, 'a,"b"'], [2.5, "c\nd"]],
            b'n,text\r\n1,"a,""b"""\r\n2.5,"c\nd"\r\n'),
}


class TestAtomicSave:
    @pytest.mark.parametrize("kind", sorted(SAVERS))
    def test_bytes_and_mode(self, tmp_path, kind):
        save, items, want = SAVERS[kind]
        p = tmp_path / f"{kind}.tsv"
        save(items, p)
        assert p.read_bytes() == want
        assert p.stat().st_mode & 0o777 == 0o600

    @pytest.mark.parametrize("kind", sorted(SAVERS))
    def test_crash_keeps_previous_file(self, tmp_path, kind):
        save, items, want = SAVERS[kind]
        p = tmp_path / f"{kind}.tsv"
        save(items, p)
        with pytest.raises(RuntimeError):
            save(failing_after(items[::-1], 1), p)
        assert p.read_bytes() == want
        assert [f.name for f in tmp_path.iterdir()] == [p.name]

    def test_json_bytes_mode_and_failed_encode(self, tmp_path):
        p = tmp_path / "out.json"
        write_json(p, {"b": [1, 2.5], "a": "x"})
        want = b'{\n "a": "x",\n "b": [\n  1,\n  2.5\n ]\n}\n'
        assert p.read_bytes() == want
        assert p.stat().st_mode & 0o777 == 0o600
        with pytest.raises(TypeError):
            write_json(p, {"a": object()})
        assert p.read_bytes() == want
        assert [f.name for f in tmp_path.iterdir()] == [p.name]
