"""Every ``ClusterConfig`` field must be read by the program.

A field that only ``config.py`` mentions is a knob that changes nothing:
it widens the configuration space tests and benchmarks are meant to
cover without adding behaviour.  Such values belong as a constant in
the one module that uses them.
"""

import dataclasses
import re
from pathlib import Path

import repro
from repro import ClusterConfig

SRC = Path(repro.__file__).resolve().parent

# Only validated (any value but "outbox" is rejected); kept because the
# benchmark workloads still pass it.
UNREAD_ON_PURPOSE = {"propagation_pipeline"}


def test_every_config_field_is_read_outside_config_module():
    sources = "\n".join(
        path.read_text() for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "cluster" / "config.py")
    unread = sorted(
        field.name for field in dataclasses.fields(ClusterConfig)
        if field.name not in UNREAD_ON_PURPOSE
        and not re.search(rf"\bconfig\.{field.name}\b", sources))
    assert unread == []
