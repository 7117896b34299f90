from __future__ import annotations

import random
import re
from datetime import datetime

import numpy as np
import pytest

from rtbsim import synthgen
from rtbsim.logdata import AuctionCase
from rtbsim.features import (
    _FIELDS,
    DEFAULT_MANIFEST,
    GBRT_CATEGORICAL_FIELDS,
    WEEKDAYS,
    CategoryEncodings,
    EmptyTrainingSet,
    Vocabulary,
    binarize,
    binarize_cases,
    build_encodings,
    build_vocabulary,
    classify_user_agent,
    densify,
    densify_cases,
    derive_fields,
    encoding_split,
    feature_manifest,
    field_values,
    floor_price_bucket,
)
from conftest import breakdown, make_case, make_record

MSIE_UA = "Mozilla/5.0 (compatible; MSIE 9.0; Windows NT 6.1; WOW64; Trident/5.0)"


class TestDerivedFields:
    def test_msie_user_agent(self):
        assert classify_user_agent(MSIE_UA) == ("windows", "ie")

    @pytest.mark.parametrize("ua,expected_os,expected_browser", [
        ("Mozilla/5.0 (Linux; Android 4.2.2) Chrome/30.0 Mobile Safari/537.36", "android", "chrome"),
        ("Mozilla/5.0 (iPhone; CPU iPhone OS 7_0 like Mac OS X) Version/7.0 Mobile Safari", "ios", "safari"),
        ("Mozilla/5.0 (Macintosh; Intel Mac OS X 10_9) Version/7.0 Safari/537.71", "mac", "safari"),
        ("Mozilla/5.0 (X11; Linux x86_64; rv:24.0) Firefox/24.0", "linux", "firefox"),
        ("Mozilla/5.0 (Windows NT 6.1) Maxthon/4.1 Chrome/26.0 Safari/537.36", "windows", "maxthon"),
        ("Mozilla/4.0 (compatible; MSIE 7.0; SE 2.X MetaSr 1.0)", "other", "sogou"),
        ("weird bot/1.0", "other", "other"),
    ])
    def test_user_agent_precedence(self, ua, expected_os, expected_browser):
        assert classify_user_agent(ua) == (expected_os, expected_browser)

    @pytest.mark.parametrize("price,bucket", [
        (0, "0"), (1, "[1,10]"), (10, "[1,10]"), (11, "[11,50]"),
        (50, "[11,50]"), (51, "[51,100]"), (100, "[51,100]"),
        (101, "[101,+inf)"), (5000, "[101,+inf)"),
    ])
    def test_floor_buckets(self, price, bucket):
        assert floor_price_bucket(price) == bucket

    def test_weekday_and_hour(self):
        # 2013-02-18 00:12 is a Monday.
        rec = make_record(timestamp=datetime(2013, 2, 18, 0, 12, 3, 638000), user_agent=MSIE_UA)
        weekday, hour, os_label, browser, floor_bucket = derive_fields(rec)
        assert weekday == "Mon" and hour == 0
        assert os_label == "windows" and browser == "ie"
        assert floor_bucket == floor_price_bucket(rec.slot_floor_price)


def _bad_vocab_entry(line_no, index, dim, found):
    return (f"line {line_no}: expected '{index}\\t<field>\\t<value>' below dimension {dim}, "
            f"with a (field, value) not listed before, found {found}")


class TestVocabulary:
    def test_dimension_by_construction(self):
        # Two cities and three distinct tags over otherwise constant
        # records: 14 constant single-valued fields + 2 + 3 + bias.
        cases = [
            make_case(bid_id="a", city=1, user_tags=(7,)),
            make_case(bid_id="b", city=2, user_tags=(8, 9)),
            make_case(bid_id="c", city=1, user_tags=(7, 8)),
        ]
        vocab = build_vocabulary(cases)
        assert vocab.dimension == 14 + 2 + 3 + 1

    def test_deterministic_rebuild(self, small_synth):
        train, _, _ = small_synth
        assert build_vocabulary(train) == build_vocabulary(train)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            build_vocabulary([])
        with pytest.raises(EmptyTrainingSet):
            build_vocabulary(iter([]))

    def test_any_iterable(self, small_synth):
        train, _, _ = small_synth
        assert build_vocabulary(iter(train)) == build_vocabulary(train)

    def test_excluded_fields_never_indexed(self, small_synth):
        train, _, _ = small_synth
        vocab = build_vocabulary(train)
        fields = {f for f, _ in vocab.index}
        assert fields.isdisjoint({"bid_id", "ipinyou_id", "url", "anonymous_url_id",
                                  "bid_price", "paying_price", "key_page_url", "log_type"})

    def test_save_load_round_trip(self, tmp_path, small_synth):
        train, _, _ = small_synth
        vocab = build_vocabulary(train[:200])
        vocab.save(tmp_path / "vocab.txt")
        assert Vocabulary.load(tmp_path / "vocab.txt") == vocab

    @pytest.mark.parametrize("edit, error", [
        (lambda ls: ls.__setitem__(3, "garbage"), _bad_vocab_entry(4, 2, 20, "'garbage'")),
        (lambda ls: ls.__delitem__(5), _bad_vocab_entry(6, 4, 20, "'5\\t")),
        (lambda ls: ls.__delitem__(-1),
         "line 21: the file ends after index 18, but dimension 20 needs indices up to 19"),
        (lambda ls: ls.__setitem__(1, "dimension\t7"), _bad_vocab_entry(9, 7, 7, "'7\\t")),
        (lambda ls: ls.__setitem__(4, "3\t" + ls[2].split("\t", 1)[1]),
         _bad_vocab_entry(5, 3, 20, "'3\\tweekday\\tThu'")),
        *((lambda ls, d=d: ls.__setitem__(1, f"dimension\t{d}"),
           f"line 2: expected 'dimension\\t<integer >= 1>', found 'dimension\\t{d}'")
          for d in ("x", "-1", "0")),
    ], ids=["garbage line", "entry deleted", "last entry deleted", "dimension too small",
            "pair repeated", "dimension not a number", "dimension negative", "dimension zero"])
    def test_bad_body_named(self, tmp_path, edit, error):
        cases = [make_case(bid_id="a", city=1, user_tags=(7,)),
                 make_case(bid_id="b", city=2, user_tags=(8, 9))]
        build_vocabulary(cases).save(tmp_path / "vocab.txt")
        lines = (tmp_path / "vocab.txt").read_text(encoding="utf-8").splitlines()
        assert lines[1] == "dimension\t20" and len(lines) == 21
        edit(lines)
        (tmp_path / "vocab.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^" + re.escape(error)):
            Vocabulary.load(tmp_path / "vocab.txt")


class TestBinarize:
    def test_tags_both_active(self):
        cases = [make_case(bid_id="a", user_tags=(123, 5678))]
        vocab = build_vocabulary(cases)
        vec = binarize(cases[0].record, vocab)
        i1 = vocab.lookup("tag", "123")
        i2 = vocab.lookup("tag", "5678")
        assert i1 in vec and i2 in vec

    def test_fully_unseen_record_is_bias_only(self, small_synth):
        train, _, _ = small_synth
        vocab = build_vocabulary(train[:100])
        alien = make_record(
            timestamp=datetime(2001, 1, 7, 23),  # unseen weekday/hour
            user_agent="weird bot/1.0" if all(
                classify_user_agent(c.record.user_agent) != ("other", "other")
                for c in train[:100]) else "zzz",
            region=-5, city=-7, ad_exchange=-9, domain="none", slot_id="none",
            slot_width=1, slot_height=2, slot_visibility="EleventhView",
            slot_format="Hologram", slot_floor_price=0, creative_id="none",
            user_tags=(999999,),
        )
        # floor bucket "0" and possibly os/browser may still be in vocab; drop them too
        vec = binarize(alien, vocab)
        in_vocab_any = {vocab.lookup("floor_bucket", "0"),
                        vocab.lookup("os", "other"), vocab.lookup("browser", "other"),
                        vocab.lookup("weekday", "Sun"), vocab.lookup("hour", "23")}
        assert set(vec.tolist()) <= {i for i in in_vocab_any if i is not None}

    def test_indices_sorted_unique_and_in_range(self, small_synth):
        train, test, _ = small_synth
        vocab = build_vocabulary(train)
        rng = random.Random(1)
        for case in rng.sample(test, 1000):
            vec = binarize(case.record, vocab)
            assert np.all(np.diff(vec) > 0)
            assert len(vec) == 0 or (vec[0] >= 1 and vec[-1] < vocab.dimension)

    def test_batch_matches_per_record(self, small_synth):
        train, _, _ = small_synth
        vocab = build_vocabulary(train[:300])
        batch = binarize_cases(train[:300], vocab)
        for i in (0, 7, 299):
            row = batch.indices[batch.indptr[i]:batch.indptr[i + 1]]
            assert np.array_equal(row, binarize(train[i].record, vocab))
        assert batch.labels[:3].tolist() == [1.0 if c.clicked else 0.0 for c in train[:3]]


def _bad_encodings_line(line_no, line):
    """The whole error message, as a pattern."""
    return "^" + re.escape(f"line {line_no}: expected '<field>\\t<value>\\t<count >= 0, "
                           f"0 for a tag>\\t<ctr in [0, 1]>' with a (field, value) not "
                           f"listed before, found {line!r}") + "$"


class TestEncodings:
    def test_frequency_and_smoothed_ratio(self):
        cases = [make_case(bid_id="a", city=9, clicked=True),
                 make_case(bid_id="b", city=9, clicked=False),
                 make_case(bid_id="c", city=4, clicked=False),
                 make_case(bid_id="d", city=4, clicked=False)]
        enc = build_encodings(cases)  # prior 0.25: alpha 5, beta 15
        assert (enc.prior, enc.alpha, enc.beta) == (0.25, 5.0, 15.0)
        freq, ctr = enc.lookup("city", "9")
        assert freq == 2 and ctr == pytest.approx((1 + 5) / (2 + 20))
        freq, ctr = enc.lookup("city", "4")
        assert freq == 2 and ctr == pytest.approx(5 / (2 + 20))

    def test_unseen_value_gets_prior(self):
        cases = [make_case(bid_id="a", clicked=True), make_case(bid_id="b")]
        enc = build_encodings(cases)
        freq, ctr = enc.lookup("city", "404")
        assert freq == 0 and ctr == pytest.approx(enc.prior) == pytest.approx(0.5)

    def test_default_smoothing_pulls_to_prior(self):
        cases = [make_case(bid_id=str(i), city=3, clicked=(i == 0)) for i in range(4)]
        enc = build_encodings(cases)  # prior 0.25, 20 pseudo-obs
        _, ctr = enc.lookup("city", "3")
        assert ctr == pytest.approx((1 + 20 * 0.25) / (4 + 20))

    def test_tags_have_no_frequency(self):
        cases = [make_case(bid_id="a", user_tags=(5,), clicked=True)]
        enc = build_encodings(cases)
        count, ctr = enc.table[("tag", "5")]
        assert count == 0 and enc.lookup("tag", "5") == (0, ctr)

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            build_encodings([])

    def test_save_load_round_trip(self, tmp_path, small_synth):
        train, _, _ = small_synth
        enc = build_encodings(train[:500])
        enc.save(tmp_path / "enc.txt")
        loaded = CategoryEncodings.load(tmp_path / "enc.txt")
        assert loaded.prior == enc.prior
        assert loaded.table == enc.table

    @pytest.mark.parametrize("line", [
        "city\t3\t12", "city\t3\t12\tx", "city\t3\t-1\t0.5", "city\t3\t12\t1.5",
        "city\t3\t12\tnan", "city\t3\t12\t0.5\t0.5", "tag\t5\t3\t0.5",
    ], ids=["three columns", "ctr not a number", "negative count", "ctr above 1", "ctr nan",
            "five columns", "tag with a count"])
    def test_bad_body_line_named(self, tmp_path, line):
        path = tmp_path / "enc.txt"
        build_encodings([make_case(bid_id="a", clicked=True), make_case(bid_id="b")]).save(path)
        n = len(path.read_text(encoding="utf-8").splitlines()) + 1
        with open(path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        with pytest.raises(ValueError, match=_bad_encodings_line(n, line)):
            CategoryEncodings.load(path)

    def test_repeated_key_named(self, tmp_path):
        path = tmp_path / "enc.txt"
        build_encodings([make_case(bid_id="a", clicked=True), make_case(bid_id="b")]).save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines + [lines[2]]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=_bad_encodings_line(len(lines) + 1, lines[2])):
            CategoryEncodings.load(path)


class TestDensify:
    def test_unseen_record_gets_zero_freq_and_prior(self):
        cases = [make_case(bid_id="a", clicked=True), make_case(bid_id="b")]
        enc = build_encodings(cases)
        alien = make_record(region=999, city=999, ad_exchange=999, domain="x",
                            slot_id="x", slot_visibility="x", slot_format="x",
                            creative_id="x", user_agent="weird bot", user_tags=(),
                            timestamp=datetime(2001, 1, 7, 23))
        vec = densify(alien, enc)
        names = feature_manifest()
        for i, name in enumerate(names):
            if name.endswith("_freq"):
                assert vec[i] == 0.0
            elif name == "tag_ctr":
                assert vec[i] == pytest.approx(enc.prior)

    def test_tag_ctrs_added_in_sequence(self):
        # Python 3.12's compensated builtin sum gives 0.19999999999999998
        enc = CategoryEncodings({("tag", "1"): (0, 0.1), ("tag", "2"): (0, 0.2),
                                 ("tag", "3"): (0, 0.3)}, 0.5, 10.0, 10.0)
        vec = densify(make_record(user_tags=(1, 2, 3)), enc)
        assert vec[DEFAULT_MANIFEST.index("tag_ctr")] == ((0.0 + 0.1) + 0.2 + 0.3) / 3
        assert vec[DEFAULT_MANIFEST.index("tag_ctr")] == 0.20000000000000004

    def test_floor_price_passes_through_raw(self):
        cases = [make_case(bid_id="a", clicked=True)]
        enc = build_encodings(cases)
        rec = make_record(slot_floor_price=21)
        vec = densify(rec, enc)
        assert vec[feature_manifest().index("slot_floor_price")] == 21.0

    def test_length_matches_manifest(self, small_synth):
        train, test, _ = small_synth
        enc = build_encodings(train[:500])
        rng = random.Random(2)
        for case in rng.sample(test, 1000):
            assert densify(case.record, enc).shape == (len(DEFAULT_MANIFEST),)

    def test_columns_of_a_seen_record(self, small_synth):
        train, _, _ = small_synth
        enc = build_encodings(train[:500])
        rec = next(c.record for c in train[:500] if len(c.record.user_tags) > 1)
        weekday, _, os_label, browser, _ = derive_fields(rec)
        spelled = {
            "weekday": weekday, "os": os_label, "browser": browser,
            "region": str(rec.region), "city": str(rec.city),
            "ad_exchange": str(rec.ad_exchange), "domain": rec.domain,
            "slot_id": rec.slot_id, "slot_visibility": rec.slot_visibility,
            "slot_format": rec.slot_format, "creative_id": rec.creative_id,
        }
        raw = {"slot_width": rec.slot_width, "slot_height": rec.slot_height,
               "slot_floor_price": rec.slot_floor_price, "hour": rec.timestamp.hour}
        tag_ctrs = [enc.lookup("tag", str(t))[1] for t in rec.user_tags]
        vec = densify(rec, enc)
        assert len(vec) == len(DEFAULT_MANIFEST)
        for i, name in enumerate(DEFAULT_MANIFEST):
            field, _, stat = name.rpartition("_")
            if name == "tag_ctr":
                assert vec[i] == pytest.approx(sum(tag_ctrs) / len(tag_ctrs))
            elif name in raw:
                assert vec[i] == raw[name]
            else:
                freq, ctr = enc.lookup(field, spelled[field])
                assert freq > 0
                assert vec[i] == (freq if stat == "freq" else ctr), name


    def test_vector_equals_its_batch_row(self, small_synth):
        train, test, _ = small_synth
        enc = build_encodings(encoding_split(train))
        x, _ = densify_cases(test, enc)
        for case, row in zip(test, x):
            vec = densify(case.record, enc)
            assert vec.dtype == np.float64 and np.array_equal(vec, row)

    def test_categorical_positions_are_field_values_order(self, small_synth):
        train, _, _ = small_synth
        rec = next(c.record for c in train if c.record.user_tags)
        pairs = field_values(rec)
        assert [f for f, _ in pairs[:len(_FIELDS)]] == list(_FIELDS)
        assert {f for f, _ in pairs[len(_FIELDS):]} == {"tag"}
        assert [f for f in _FIELDS if f in GBRT_CATEGORICAL_FIELDS] == list(GBRT_CATEGORICAL_FIELDS)

    def test_per_field_tables_are_the_table(self, small_synth):
        """Each per-field entry spells back, as field_values spells a record's
        value, to its (field, value) in the table, with the same entry; and
        every table entry is in a per-field table."""
        train, _, _ = small_synth
        enc = build_encodings(train[:500])
        seen = set()
        tables = [*zip(GBRT_CATEGORICAL_FIELDS, enc.by_field),
                  ("tag", {tag: (0, ctr) for tag, ctr in enc.tag_ctr.items()})]
        for name, by_value in tables:
            for key, entry in by_value.items():
                assert enc.table[(name, _spell(name, key))] == entry
                seen.add((name, _spell(name, key)))
        assert seen == {key for key in enc.table if key[0] in (*GBRT_CATEGORICAL_FIELDS, "tag")}
        vocab = build_vocabulary(train[:500])
        spelled = {(name, _spell(name, key)): i
                   for name, table in zip((*_FIELDS, "tag"), vocab.tables) for key, i in table.items()}
        assert spelled == vocab.index


# The record values that field_values spells with str, and the type each
# per-field table key must have.
_INT_KEYED = {"hour", "region", "city", "ad_exchange", "slot_width", "slot_height", "tag"}


def _spell(name, key):
    """How field_values spells a record's value ``key`` for field ``name``."""
    if name == "weekday":
        assert type(key) is int
        return WEEKDAYS[key]
    assert type(key) is (int if name in _INT_KEYED else str), (name, key)
    return str(key)


def reference_binarize(record, vocab):
    """The vocabulary's index of each of field_values' pairs, sorted."""
    found = [vocab.index.get(pair) for pair in field_values(record)]
    return np.array(sorted(i for i in found if i is not None), dtype=np.int64)


def reference_densify(record, enc):
    """Each categorical field's (count, ctr) from the table by its spelled
    value, the distinct tags' CTRs added in sequence from 0.0 over their
    count, then the raw columns."""
    pairs = field_values(record)
    spelled = dict(pair for pair in pairs if pair[0] != "tag")
    row = []
    for name in GBRT_CATEGORICAL_FIELDS:
        row += enc.table.get((name, spelled[name]), (0, enc.prior))
    tag_ctrs = [enc.table.get(pair, (0, enc.prior))[1] for pair in pairs if pair[0] == "tag"]
    total = 0.0
    for ctr in tag_ctrs:
        total += ctr
    row += [total / len(tag_ctrs) if tag_ctrs else enc.prior, record.slot_width,
            record.slot_height, record.slot_floor_price, record.timestamp.hour]
    return np.array(row, dtype=np.float64)


def assert_encoders_match_reference(records, vocab, enc):
    """binarize and densify equal the pair-based reference bit for bit, and
    the batch encoders equal them row for row."""
    cases = [r if isinstance(r, AuctionCase) else AuctionCase(r, False, False) for r in records]
    records = [c.record for c in cases]
    batch = binarize_cases(cases, vocab)
    x, _ = densify_cases(cases, enc)
    for i, rec in enumerate(records):
        vec, dense = binarize(rec, vocab), densify(rec, enc)
        assert vec.dtype == np.int64 and np.array_equal(vec, reference_binarize(rec, vocab)), rec
        assert np.array_equal(batch.indices[batch.indptr[i]:batch.indptr[i + 1]], vec)
        assert dense.dtype == np.float64
        assert dense.tobytes() == reference_densify(rec, enc).tobytes() == x[i].tobytes(), rec


class TestEncodersAgainstReference:
    def test_every_record_of_a_synth_split(self):
        train, test, _ = synthgen.generate(synthgen.SynthConfig(seed=7))
        vocab = build_vocabulary(train)
        enc = build_encodings(encoding_split(train))
        assert_encoders_match_reference(test, vocab, enc)

    def test_edge_records(self):
        seen = [make_case(bid_id="a", region=-5, city=-7, user_tags=(5, 7), clicked=True),
                make_case(bid_id="b", region=0, city=-1, user_tags=()),
                make_case(bid_id="c", region=15, city=16, user_tags=(7, 7, 9),
                          timestamp=datetime(2013, 6, 9, 0, 1))]
        vocab, enc = build_vocabulary(seen), build_encodings(seen)
        unseen = make_record(
            timestamp=datetime(2001, 1, 3, 23), user_agent="weird bot/1.0", region=-6, city=-8,
            ad_exchange=77, domain="none", slot_id="none", slot_width=1, slot_height=2,
            slot_visibility="EleventhView", slot_format="Hologram", slot_floor_price=500,
            creative_id="none", user_tags=(4, 4, 6))
        edges = [unseen, make_record(region=-5, city=-7, user_tags=(7, 5, 7, 5)),
                 make_record(region=-5, city=-1, user_tags=()), make_record(user_tags=(5, 5)),
                 make_record(region=5, city=7, user_tags=(-5,))]
        assert_encoders_match_reference([*seen, *edges], vocab, enc)
        assert binarize(unseen, vocab).size == 0

    def test_non_canonical_spellings_match_nothing(self, tmp_path):
        """A loaded entry that field_values spells no record value as (an
        int with a sign, padding or leading zeros, a weekday in another
        case) matches no record, whether or not the canonical one is there."""
        rec = make_record(timestamp=datetime(2013, 6, 6, 7), region=5, city=-3, slot_width=300,
                          user_tags=(7, 12))
        odd = [("hour", "07"), ("region", "+5"), ("region", " 5"), ("region", "5.0"),
               ("city", "-03"), ("slot_width", "0300"), ("slot_height", "2_50"), ("tag", "007"),
               ("tag", "12 "), ("weekday", "thu"), ("weekday", "3"), ("ad_exchange", "２")]
        canonical = [("region", "5"), ("tag", "12"), ("os", "windows"), ("ad_exchange", "2")]
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("#rtbsim-vocab v1\n" + f"dimension\t{len(odd) + len(canonical) + 1}\n"
                              + "".join(f"{i}\t{f}\t{v}\n" for i, (f, v) in enumerate(odd + canonical, 1)),
                              encoding="utf-8")
        vocab = Vocabulary.load(vocab_file)
        enc_file = tmp_path / "enc.txt"
        enc_file.write_text("#rtbsim-encodings v1\nprior\t0.1\talpha\t2.0\tbeta\t18.0\n"
                            + "".join(f"{f}\t{v}\t{0 if f == 'tag' else 3}\t0.5\n" for f, v in odd)
                            + "".join(f"{f}\t{v}\t{0 if f == 'tag' else 9}\t0.25\n" for f, v in canonical),
                            encoding="utf-8")
        enc = CategoryEncodings.load(enc_file)
        assert sorted(binarize(rec, vocab).tolist()) == [len(odd) + k for k in (1, 2, 3, 4)]
        assert_encoders_match_reference([rec, make_record(user_tags=())], vocab, enc)
        assert 3.0 not in densify(rec, enc).tolist() and 0.5 not in densify(rec, enc).tolist()


class TestEncodingSplit:
    def test_time_split_is_first_half(self, small_synth):
        train, _, _ = small_synth
        subset = encoding_split(train)
        assert subset == list(train[: len(train) // 2])
        assert max(c.timestamp for c in subset) <= min(c.timestamp for c in train[len(train) // 2:])


def test_repeated_tag_counts_once_in_every_consumer():
    """A record that lists tag 5 twice reads, in binarize, the breakdowns,
    the encodings and densify, as one that lists it once."""
    tags = [(5, 5, 7), (7,), (5, 9, 9, 5), (9,), (5, 7), (5, 5)]
    clicks = [True, False, True, False, False, True]

    def cases(dedup):
        return [make_case(bid_id=f"c{i}", clicked=c, paying=10 + i,
                          user_tags=tuple(dict.fromkeys(t)) if dedup else t)
                for i, (t, c) in enumerate(zip(tags, clicks))]

    repeated, once = cases(False), cases(True)
    vocab = build_vocabulary(once)
    assert build_vocabulary(repeated) == vocab
    for r, o in zip(repeated, once):
        assert np.array_equal(binarize(r.record, vocab), binarize(o.record, vocab))
    for metric in ("ctr", "market_price", "ecpc"):
        assert (breakdown(repeated, "user_tag", metric).rows
                == breakdown(once, "user_tag", metric).rows)
    enc = build_encodings(once)
    enc_repeated = build_encodings(repeated)
    assert enc_repeated.table == enc.table
    for r, o in zip(repeated, once):
        assert np.array_equal(densify(r.record, enc), densify(o.record, enc))
