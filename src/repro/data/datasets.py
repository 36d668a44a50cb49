"""Schema-faithful generators for the paper's six datasets (Table 4).

Each generator reproduces the structural character of its namesake —
object/array balance, nesting depth, attribute fan-out, and the
selectivity class of its two Table 5 queries:

========  =====================================  =============================
name      shaped after                           character
========  =====================================  =============================
``TT``    Twitter tweets                         mixed objects/arrays, depth ~11
``BB``    Best Buy product catalog               array-rich (category paths)
``GMD``   Google Maps Directions                 object-heavy, deep route/leg/step
``NSPL``  UK National Statistics Postcode        one giant primitive-array matrix
``WM``    Walmart product feed                   flat objects, almost no arrays
``WP``    Wikidata entities                      very object-heavy, deep claims
========  =====================================  =============================

Field names use the paper's abbreviations (``pd``, ``cp``, ``vc``, ``rt``,
``lg``, ``st``, ``dt``, ``mt``, ``vw``, ``co``, ``it``, ``cl``, ``ms``…)
so the Table 5 query text applies verbatim.

Both evaluation formats are provided (Section 5.1): ``large_record``
builds one single record of roughly ``target_bytes``; ``record_stream``
builds the same content as a sequence of small records with an offset
array.  Generation is deterministic in ``(name, target_bytes, seed)``.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from typing import Callable

from repro.stream.records import RecordStream

_WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "xray yankee zulu amber birch cedar dune ember flint grove harbor iris "
    "jasper knoll ledge marsh nook onyx pier quarry ridge slope terrace"
).split()

_LANGS = ("en", "de", "fr", "es", "ja", "pt", "it", "nl")


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _coord(rng: random.Random) -> float:
    return round(rng.uniform(-90, 90), 6)


# ---------------------------------------------------------------------------
# per-dataset record units


def _tt_unit(rng: random.Random, i: int, depth: int = 1) -> dict:
    """One tweet (geo-referenced, like the paper's Figure 1)."""
    n_urls = rng.choice((0, 0, 0, 1, 1, 2))  # ~0.6 urls per tweet
    tweet = {
        "created_at": f"Mon Jul 0{1 + i % 7} 12:{i % 60:02d}:00 +0000 2021",
        "id": 1_000_000_000_000 + i,
        "id_str": str(1_000_000_000_000 + i),
        "text": _words(rng, rng.randrange(4, 18)),
        "truncated": rng.random() < 0.1,
        "en": {
            "hashtags": [
                {"text": rng.choice(_WORDS), "indices": [rng.randrange(0, 80), rng.randrange(80, 140)]}
                for _ in range(rng.randrange(0, 3))
            ],
            "urls": [
                {
                    "url": f"https://t.co/{_words(rng, 1)}{i}{k}",
                    "expanded_url": f"https://example.com/{_words(rng, 1)}/{i}",
                    "display_url": f"example.com/{_words(rng, 1)}",
                    "indices": [rng.randrange(0, 70), rng.randrange(70, 140)],
                }
                for k in range(n_urls)
            ],
            "user_mentions": [
                {"screen_name": rng.choice(_WORDS), "id": rng.randrange(1, 10**9)}
                for _ in range(rng.randrange(0, 2))
            ],
        },
        "user": {
            "id": rng.randrange(1, 10**9),
            "name": _words(rng, 2),
            "screen_name": rng.choice(_WORDS) + str(i % 997),
            "followers_count": rng.randrange(0, 10**6),
            "friends_count": rng.randrange(0, 10**4),
            "verified": rng.random() < 0.02,
            "description": _words(rng, rng.randrange(0, 12)),
        },
        "coordinates": [_coord(rng), _coord(rng)],
        "retweet_count": rng.randrange(0, 10**4),
        "favorite_count": rng.randrange(0, 10**5),
        "lang": rng.choice(_LANGS),
    }
    if rng.random() < 0.4:
        tweet["place"] = {
            "name": _words(rng, 1).title(),
            "full_name": _words(rng, 2).title(),
            "country": rng.choice(("US", "UK", "JP", "BR")),
            "bounding_box": {
                "type": "Polygon",
                "pos": [[_coord(rng), _coord(rng)] for _ in range(4)],
            },
        }
    # Real tweets nest an entire tweet under retweeted_status (one level
    # of recursion), which is where Table 4's depth-11 comes from.
    if depth > 0 and rng.random() < 0.15:
        tweet["retweeted_status"] = _tt_unit(rng, i + 500_000, depth=depth - 1)
    return tweet


def _bb_unit(rng: random.Random, i: int) -> dict:
    """One Best Buy product: category-path arrays dominate the structure."""
    product = {
        "sku": 1_000_000 + i,
        "nm": _words(rng, rng.randrange(3, 8)).title(),
        "type": "HardGood",
        "regularPrice": round(rng.uniform(5, 2500), 2),
        "salePrice": round(rng.uniform(5, 2500), 2),
        "upc": f"{rng.randrange(10**11, 10**12)}",
        "cp": [
            {"id": f"cat{rng.randrange(10000, 99999)}", "nm": _words(rng, 2).title()}
            for _ in range(rng.randrange(2, 6))
        ],
        "description": _words(rng, rng.randrange(8, 25)),
        "manufacturer": _words(rng, 1).title(),
        "modelNumber": f"M{rng.randrange(1000, 99999)}",
        "image": f"https://img.example.com/{i}.jpg",
        "shipping": {"ground": round(rng.uniform(0, 30), 2), "nextDay": round(rng.uniform(10, 60), 2)},
        "offers": [
            {"id": f"of{rng.randrange(1000, 9999)}", "type": rng.choice(("deal", "clearance"))}
            for _ in range(rng.randrange(0, 3))
        ],
    }
    if rng.random() < 0.02:  # videoChapters are rare (BB2's low match count)
        product["vc"] = [
            {"cha": f"Chapter {k + 1}: {_words(rng, 3)}", "st": rng.randrange(0, 3600)}
            for k in range(rng.randrange(1, 5))
        ]
    return product


def _gmd_unit(rng: random.Random, i: int) -> dict:
    """One directions response: deep route/leg/step objects, few arrays."""
    def step() -> dict:
        seconds = rng.randrange(30, 1200)
        meters = rng.randrange(100, 20000)
        return {
            "dt": {"tx": f"{seconds // 60} mins", "vl": seconds},
            "ds": {"tx": f"{meters / 1000:.1f} km", "vl": meters},
            "end_location": {"lat": _coord(rng), "lng": _coord(rng)},
            "start_location": {"lat": _coord(rng), "lng": _coord(rng)},
            "html_instructions": _words(rng, rng.randrange(5, 15)),
            "polyline": {"points": _words(rng, 1) + "".join(rng.choice("abkmq~`@?_") for _ in range(rng.randrange(20, 80)))},
            "travel_mode": "DRIVING",
            "maneuver": rng.choice(("turn-left", "turn-right", "merge", "straight")),
        }

    result = {
        "geocoded_waypoints": [
            {"geocoder_status": "OK", "place_id": f"ChIJ{_words(rng, 1)}{i}", "types": ["locality"]}
            for _ in range(2)
        ],
        "rt": [
            {
                "bounds": {
                    "northeast": {"lat": _coord(rng), "lng": _coord(rng)},
                    "southwest": {"lat": _coord(rng), "lng": _coord(rng)},
                },
                "copyrights": "Map data 2021",
                "lg": [
                    {
                        "distance": {"tx": f"{rng.randrange(1, 900)} km", "vl": rng.randrange(1000, 900000)},
                        "duration": {"tx": f"{rng.randrange(2, 600)} mins", "vl": rng.randrange(100, 36000)},
                        "end_address": _words(rng, 4).title(),
                        "start_address": _words(rng, 4).title(),
                        "st": [step() for _ in range(rng.randrange(3, 9))],
                    }
                    for _ in range(rng.randrange(1, 3))
                ],
                "summary": _words(rng, 2).title(),
            }
        ],
        "status": "OK",
    }
    # Rare top-level attribute (GMD2).  The paper's rate is ~270 matches
    # per GB; scaled up so MB-scale inputs still exercise the query.
    if rng.random() < 0.01:
        result["atm"] = {"provider": _words(rng, 1), "ts": 1_600_000_000 + i}
    return result


#: Exactly 44 column descriptors — NSPL1's match count in Table 5.
_NSPL_COLUMNS = (
    "PCD PCD2 PCDS DOINTR DOTERM USERTYPE OSEAST1M OSNRTH1M OSGRDIND OA11 "
    "CTY CED LAD WARD HLTHAU NHSER CTRY RGN PCON EER TECLEC TTWA PCT NUTS "
    "STATSWARD OA01 CASWARD PARK LSOA01 MSOA01 UR01IND OAC01 LSOA11 "
    "MSOA11 WZ11 CCG BUA11 BUASD11 RU11IND OAC11 LAT LONG LEP1 LEP2"
).split()
assert len(_NSPL_COLUMNS) == 44


def _nspl_meta(rng: random.Random) -> dict:
    """The NSPL metadata view: 44 column descriptors (NSPL1's matches)."""
    return {
        "vw": {
            "id": "nspl-2021",
            "nm": "National Statistics Postcode Lookup",
            "co": [
                {"id": k, "nm": name, "ty": "text" if k < 6 else "number", "ix": k}
                for k, name in enumerate(_NSPL_COLUMNS)
            ],
            "createdAt": 1_600_000_000,
        },
        "src": {"provider": "ONS", "licence": "OGL"},
    }


def _nspl_block(rng: random.Random, i: int) -> list:
    """One block of postcode rows: arrays of arrays of primitives."""
    def row(j: int) -> list:
        postcode = f"{rng.choice('ABCDEFGHKL')}{rng.choice('ABM')}{rng.randrange(1, 99)} {rng.randrange(1, 9)}{rng.choice('XYZQW')}{rng.choice('ABDEF')}"
        return [
            postcode,
            f"{postcode[:4]}{j % 10}",
            rng.randrange(198001, 202301),
            rng.randrange(0, 2),
            rng.randrange(100000, 700000),
            rng.randrange(100000, 1300000),
            f"E{rng.randrange(10**7, 10**8)}",
            f"W{rng.randrange(10**7, 10**8)}",
            round(rng.uniform(49.9, 60.8), 6),
            round(rng.uniform(-8.2, 1.8), 6),
        ]

    return [row(j) for j in range(8)]


def _wm_unit(rng: random.Random, i: int) -> dict:
    """One Walmart item: flat, attribute-heavy, almost array-free."""
    item = {
        "itemId": 10_000_000 + i,
        "parentItemId": 10_000_000 + i - (i % 3),
        "nm": _words(rng, rng.randrange(4, 9)).title(),
        "msrp": round(rng.uniform(3, 900), 2),
        "salePrice": round(rng.uniform(3, 900), 2),
        "upc": f"{rng.randrange(10**11, 10**12)}",
        "categoryPath": "/".join(_words(rng, 1).title() for _ in range(rng.randrange(2, 5))),
        "shortDescription": _words(rng, rng.randrange(10, 30)),
        "longDescription": _words(rng, rng.randrange(30, 80)),
        "brandName": _words(rng, 1).title(),
        "thumbnailImage": f"https://i.example.com/{i}-thumb.jpg",
        "largeImage": f"https://i.example.com/{i}.jpg",
        "productTrackingUrl": f"https://linksynergy.example.com/fs-bin/click?id={i}",
        "standardShipRate": round(rng.uniform(0, 10), 2),
        "marketplace": rng.random() < 0.3,
        "shipToStore": rng.random() < 0.7,
        "freeShipToStore": rng.random() < 0.5,
        "availableOnline": rng.random() < 0.9,
        "stock": rng.choice(("Available", "Limited", "Not available")),
        "customerRating": f"{rng.uniform(1, 5):.1f}",
        "numReviews": rng.randrange(0, 5000),
    }
    if rng.random() < 0.06:  # bundle-reduced price object (WM1's matches)
        item["bmrpr"] = {"pr": round(rng.uniform(2, 700), 2), "cu": "USD"}
    return item


def _wp_unit(rng: random.Random, i: int) -> dict:
    """One Wikidata entity: labels/descriptions maps and claim objects."""
    langs = rng.sample(_LANGS, rng.randrange(2, 6))

    def snak(prop: str) -> dict:
        statement = {
            "ms": {
                "pty": prop,
                "snaktype": "value",
                "datavalue": {
                    "value": {"entity-type": "item", "numeric-id": rng.randrange(1, 10**7)},
                    "type": "wikibase-entityid",
                },
            },
            "type": "statement",
            "id": f"Q{i}${rng.randrange(10**8, 10**9)}",
            "rank": "normal",
        }
        # Qualifier snaks add the deep nesting of real Wikidata dumps.
        if rng.random() < 0.4:
            statement["qualifiers"] = {
                "P580": [{
                    "pty": "P580",
                    "datavalue": {
                        "value": {"time": f"+{rng.randrange(1200, 2021)}-01-01T00:00:00Z",
                                  "precision": 9,
                                  "calendarmodel": {"id": "Q1985727"}},
                        "type": "time",
                    },
                }],
            }
        return statement

    entity = {
        "id": f"Q{1000 + i}",
        "type": "item",
        "labels": {lang: {"language": lang, "value": _words(rng, 2).title()} for lang in langs},
        "descriptions": {lang: {"language": lang, "value": _words(rng, rng.randrange(3, 9))} for lang in langs},
        "aliases": {langs[0]: [{"language": langs[0], "value": _words(rng, 1)} for _ in range(rng.randrange(1, 3))]},
        "cl": {},
        "sitelinks": {
            f"{lang}wiki": {"site": f"{lang}wiki", "title": _words(rng, 2).title(), "badges": []}
            for lang in langs[:2]
        },
        "lastrevid": rng.randrange(10**8, 10**9),
        "modified": "2021-05-01T00:00:00Z",
    }
    claims: dict = {}
    for prop in rng.sample(("P31", "P17", "P131", "P625", "P18", "P373"), rng.randrange(2, 5)):
        claims[prop] = [snak(prop) for _ in range(rng.randrange(1, 3))]
    # P150 ("contains administrative entity") appears on a minority of
    # entities; 12% keeps WP2's 11-record window non-empty at MB scale.
    if rng.random() < 0.12:
        claims["P150"] = [snak("P150") for _ in range(rng.randrange(1, 4))]
    entity["cl"] = claims
    return entity


# ---------------------------------------------------------------------------
# dataset registry


@dataclass(frozen=True)
class QuerySpec:
    """One Table 5 query: its id, the large-record path, and the
    equivalent per-small-record path (``None`` when, as the paper notes
    for NSPL1 and WP2, the query is not applicable to small records)."""

    qid: str
    large: str
    small: str | None
    description: str


@dataclass(frozen=True)
class DatasetSpec:
    """A generator plus its Table 5 queries."""

    name: str
    description: str
    unit: Callable[[random.Random, int], object]
    #: 'array' roots ([unit, ...]) or an object root with units under a key.
    root_key: str | None
    queries: tuple[QuerySpec, ...]


DATASETS: dict[str, DatasetSpec] = {
    "TT": DatasetSpec(
        name="TT",
        description="Twitter tweet stream (developer API shape)",
        unit=_tt_unit,
        root_key=None,
        queries=(
            QuerySpec("TT1", "$[*].en.urls[*].url", "$.en.urls[*].url", "URLs in tweet entities"),
            QuerySpec("TT2", "$[*].text", "$.text", "tweet text"),
        ),
    ),
    "BB": DatasetSpec(
        name="BB",
        description="Best Buy product catalog",
        unit=_bb_unit,
        root_key="pd",
        queries=(
            QuerySpec("BB1", "$.pd[*].cp[1:3].id", "$.cp[1:3].id", "2nd/3rd category-path ids"),
            QuerySpec("BB2", "$.pd[*].vc[*].cha", "$.vc[*].cha", "video chapter titles (rare)"),
        ),
    ),
    "GMD": DatasetSpec(
        name="GMD",
        description="Google Maps Directions responses",
        unit=_gmd_unit,
        root_key=None,
        queries=(
            QuerySpec("GMD1", "$[*].rt[*].lg[*].st[*].dt.tx", "$.rt[*].lg[*].st[*].dt.tx", "step duration texts"),
            QuerySpec("GMD2", "$[*].atm", "$.atm", "rare top-level attribute"),
        ),
    ),
    "NSPL": DatasetSpec(
        name="NSPL",
        description="UK National Statistics Postcode Lookup matrix",
        unit=_nspl_block,
        root_key="dt",
        queries=(
            QuerySpec("NSPL1", "$.mt.vw.co[*].nm", None, "the 44 column names (early in stream)"),
            QuerySpec("NSPL2", "$.dt[*][*][2:4]", "$.dt[*][2:4]", "columns 2-3 of every row"),
        ),
    ),
    "WM": DatasetSpec(
        name="WM",
        description="Walmart product feed",
        unit=_wm_unit,
        root_key="it",
        queries=(
            QuerySpec("WM1", "$.it[*].bmrpr.pr", "$.bmrpr.pr", "bundle-reduced prices (rare)"),
            QuerySpec("WM2", "$.it[*].nm", "$.nm", "item names"),
        ),
    ),
    "WP": DatasetSpec(
        name="WP",
        description="Wikidata entity dump",
        unit=_wp_unit,
        root_key=None,
        queries=(
            QuerySpec("WP1", "$[*].cl.P150[*].ms.pty", "$.cl.P150[*].ms.pty", "P150 claim properties"),
            QuerySpec("WP2", "$[10:21].cl.P150[*].ms.pty", None, "P150 claims of records 10-20 only"),
        ),
    ),
}


def dataset(name: str) -> DatasetSpec:
    """Look up a dataset by its Table 4 short name."""
    try:
        return DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; expected one of {sorted(DATASETS)}") from None


def _unit_strings(spec: DatasetSpec, target_bytes: int, seed: int) -> list[bytes]:
    """Serialize record units until the target size is reached."""
    # zlib.crc32, not hash(): str hashes are salted per process, and the
    # datasets must be the same bytes in every process.
    rng = random.Random((zlib.crc32(spec.name.encode()) ^ seed) & 0xFFFF_FFFF)
    units: list[bytes] = []
    total = 0
    i = 0
    while total < target_bytes:
        text = json.dumps(spec.unit(rng, i), separators=(",", ":")).encode("utf-8")
        units.append(text)
        total += len(text) + 1
        i += 1
    return units


def large_record(name: str, target_bytes: int, seed: int = 0) -> bytes:
    """Build one single large record of roughly ``target_bytes``."""
    spec = dataset(name)
    units = _unit_strings(spec, target_bytes, seed)
    body = b",".join(units)
    if name == "NSPL":
        rng = random.Random(seed + 97)
        meta = json.dumps(_nspl_meta(rng), separators=(",", ":")).encode()
        return b'{"mt":' + meta + b',"dt":[' + body + b"]}"
    if spec.root_key is not None:
        return b'{"%s":[' % spec.root_key.encode() + body + b'],"total":%d}' % len(units)
    return b"[" + body + b"]"


def record_stream(name: str, target_bytes: int, seed: int = 0) -> RecordStream:
    """Build the small-records format: the same units, one per record."""
    spec = dataset(name)
    units = _unit_strings(spec, target_bytes, seed)
    if name == "NSPL":
        # Each small record carries one data block under "dt".
        units = [b'{"dt":' + u + b"}" for u in units]
    return RecordStream.from_records(units)
