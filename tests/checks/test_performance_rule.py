"""PERF001: hot-path classes must declare ``__slots__``."""


def test_perf001_slotless_class_in_des_flagged(check):
    findings = check(
        {
            "repro/des/thing.py": (
                "class Hot:\n"
                "    def __init__(self):\n"
                "        self.x = 1\n"
            )
        },
        codes=["PERF001"],
    )
    assert len(findings) == 1
    assert findings[0].code == "PERF001"
    assert "class Hot in a hot module lacks __slots__" in findings[0].message


def test_perf001_slots_declared_passes(check):
    findings = check(
        {
            "repro/des/thing.py": (
                "class Hot:\n"
                "    __slots__ = ('x',)\n"
            )
        },
        codes=["PERF001"],
    )
    assert findings == []


def test_perf001_annotated_slots_pass(check):
    findings = check(
        {
            "repro/cache/thing.py": (
                "from typing import Tuple\n"
                "class Hot:\n"
                "    __slots__: Tuple[str, ...] = ('x',)\n"
            )
        },
        codes=["PERF001"],
    )
    assert findings == []


def test_perf001_dataclass_slots_true_passes(check):
    findings = check(
        {
            "repro/cache/thing.py": (
                "from dataclasses import dataclass\n"
                "@dataclass(slots=True)\n"
                "class Hot:\n"
                "    x: int = 0\n"
            )
        },
        codes=["PERF001"],
    )
    assert findings == []


def test_perf001_plain_dataclass_flagged(check):
    findings = check(
        {
            "repro/cache/thing.py": (
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Hot:\n"
                "    x: int = 0\n"
            )
        },
        codes=["PERF001"],
    )
    assert len(findings) == 1


def test_perf001_exception_enum_protocol_exempt(check):
    findings = check(
        {
            "repro/des/thing.py": (
                "import enum\n"
                "from typing import Protocol\n"
                "class Boom(Exception):\n"
                "    pass\n"
                "class Kind(enum.Enum):\n"
                "    A = 1\n"
                "class Shape(Protocol):\n"
                "    x: int\n"
            )
        },
        codes=["PERF001"],
    )
    assert findings == []


def test_perf001_subclass_without_own_slots_flagged(check):
    findings = check(
        {
            "repro/des/thing.py": (
                "class Base:\n"
                "    __slots__ = ('x',)\n"
                "class Child(Base):\n"
                "    pass\n"
            )
        },
        codes=["PERF001"],
    )
    assert len(findings) == 1
    assert "class Child" in findings[0].message


def test_perf001_scope_only_hot_modules(check):
    slotless = "class Cold:\n    pass\n"
    findings = check(
        {
            "repro/net/channel.py": slotless,  # hot: the message fast path
            "repro/net/other.py": slotless,  # net is otherwise not hot
            "repro/schemes/policy.py": slotless,  # never hot
            "repro/des/__init__.py": slotless,  # __init__ excluded
        },
        codes=["PERF001"],
    )
    assert [f.path for f in findings] == ["repro/net/channel.py"]
