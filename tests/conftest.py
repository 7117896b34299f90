from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from rtbsim import synthgen
from rtbsim.logdata import AuctionCase, LogRecord, LogType
from rtbsim.stats import feature_breakdowns


def epoch_ms(ts: datetime) -> int:
    """A naive datetime as a record's timestamp: int milliseconds since
    1970-01-01, computed with datetime arithmetic, apart from rtbsim."""
    return (ts - datetime(1970, 1, 1)) // timedelta(milliseconds=1)


def make_record(**overrides) -> LogRecord:
    base = dict(
        bid_id="bid000000000001",
        timestamp=epoch_ms(datetime(2013, 6, 6, 12, 30, 15, 123000)),
        log_type=LogType.IMPRESSION,
        ipinyou_id="u001",
        user_agent="Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.36 Chrome/31.0 Safari/537.36",
        ip="118.81.189.*",
        region=15,
        city=16,
        ad_exchange=2,
        domain="e80f4ec7c01cd1a049",
        url="hz55b000003d6f275121",
        anonymous_url_id=None,
        slot_id="2147689_8764813",
        slot_width=300,
        slot_height=250,
        slot_visibility="SecondView",
        slot_format="Fixed",
        slot_floor_price=0,
        creative_id="e39e178ffd1ee56bcd",
        bid_price=753,
        paying_price=15,
        key_page_url="a8be178ffd1ee56bcd",
        advertiser_id=2345,
        user_tags=(123, 5678, 3456),
    )
    base.update(overrides)
    return LogRecord(**base)


def make_case(paying=15, floor=0, clicked=False, converted=False, ts=None, bid_id=None, **overrides):
    if ts is not None:
        overrides["timestamp"] = ts
    if bid_id is not None:
        overrides["bid_id"] = bid_id
    overrides.setdefault("paying_price", paying)
    overrides.setdefault("slot_floor_price", floor)
    overrides.setdefault("bid_price", max(1000, paying + 1))
    return AuctionCase(make_record(**overrides), clicked, converted)


def breakdown(cases, key, metric):
    """The (key, metric) breakdown among :func:`feature_breakdowns`."""
    return next(bd for bd in feature_breakdowns(cases)
                if (bd.feature_key, bd.metric) == (key, metric))


@pytest.fixture(scope="session")
def small_synth():
    """A shared mid-size synthetic campaign (deterministic), its splits as
    case lists."""
    config = synthgen.SynthConfig(seed=42, n_train=4000, n_test=1500, base_ctr=0.02)
    train, test, truth = synthgen.generate(config)
    return train.cases(), test.cases(), truth
