"""Byte-identity pins for serving reports.

Each digest is the sha256 of ``json.dumps(report, sort_keys=True)`` for a
report some test in this package already computes, generated once at the
parent of the serving-loop collapse (PR 20) and not edited since: a
refactor of ``repro.serve`` that moves any of them changed behaviour.  A
report that is *meant* to move gets its digest regenerated in the same
change, with the reason in CHANGES.md; the failure message prints the new
value.
"""

from __future__ import annotations

import hashlib
import json

PINS: dict[str, str] = {
    "autoscale.fleet":
        "5bb22ce4d5cf11ccb81f2bd106281363157bb19b18195633a6b2470925333145",
    "autoscale.single_replica":
        "01b363dceb5bc18fc7f9cc2b5177ebbdf0afa5f06d4726d6cf86f6eb5519c7be",
    "rejoin.outaged":
        "3d7856a30db38a056ed100f59d72be6711ca41a63be8a285fe4b31a87b30b6dd",
    "replay_parity.contiguous":
        "4f361f58c82d1234b3f52cdb29920352079f52be72b049c1987c0adbb0e5426c",
    "replay_parity.crash.contiguous":
        "532c6efa7e9dbcc857adff15e4546aebdc5e2445820aea7ca3e75d8193b01cd5",
    "replay_parity.crash.paged":
        "a6e7995734280a8b0c284a5d3308b6be3ea090b0b0fd63940c4cc865df5f8f9d",
    "replay_parity.fleet":
        "f43c86d6b61cce0da51e431bfb2e7683275ef2cf964b16bed2a6819099904897",
    "replay_parity.outage_crash":
        "c09c430ffa739798bdcef0303f43c5e0e709bc34fc6f4ce828697a182655db28",
    "replay_parity.outage_crash.megatron":
        "1acb32c6934ba9840c2a50aba8e81a72cf1b2493b23c249c74349badc998f170",
    "replay_parity.paged":
        "8bd557854957050222126ea105afe92929793f95cde99391c107347ff0ed3ea5",
    "replay_parity.slowed":
        "c031011de580400b5e0ea916a6b699cdabf3ec944de0a082fabc67edd9c13fce",
    "runner.megatron":
        "1648b6f1156cdfa6154738520e06de149b8ff070384df36d3e49dce94f56faa0",
    "runner.optimus":
        "0971fa1de304e0fa085cafc3c6813d359fb857a230056f68bf0865fb942235b9",
    "runner.paged_spec_two_bands":
        "d4e72c5cb972eb1fecf4f40f48ecfa36de188f1457b82c71063f917f35f8c042",
    "runner.prioritized_contiguous":
        "cde15986f9aab1a0ee66c5b458f270c3b091ca2b6596b29a991b9dd36fb470fa",
    "runner.static_fleet":
        "40bc3443b7498a30fa0da94afe4ea4abc1c807c5bb16a68cab84122dcb4ef64a",
    "runner.tesseract":
        "2d3000f571fa71348f8ae1e122a11b79723547b48913c0f20908a25ff581c2fb",
    "serve_fuzz.baseline":
        "2d3000f571fa71348f8ae1e122a11b79723547b48913c0f20908a25ff581c2fb",
    "serve_fuzz.paged_baseline":
        "4cde5f59a6d48b436ba7c3078e0abbe8fe27094fe5d7bd2adcc0ea7407836cbb",
    # paged x autoscale raised at that parent: pinned from PR 20 itself
    "replay_parity.paged_fleet":
        "f333c1f77950db7ac62a9b3a22bf21be3e233632e74bf1fc60aa87519534cc2d",
}


def assert_pinned(name: str, report: dict) -> None:
    got = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()
    assert got == PINS.get(name), (
        f"serving report {name!r} moved: pinned {PINS.get(name)}, "
        f"new digest {got}"
    )
