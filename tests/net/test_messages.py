"""Tests for message types and priority mapping."""

import pytest

from repro.net import (
    BROADCAST,
    Message,
    MessageKind,
    PRIORITY_CHECK,
    PRIORITY_DATA,
    PRIORITY_IR,
    SERVER_ID,
)


def make(kind, size=100, dest=BROADCAST):
    return Message(kind=kind, size_bits=size, src=SERVER_ID, dest=dest)


class TestPriorities:
    def test_ir_is_highest(self):
        assert make(MessageKind.INVALIDATION_REPORT).priority == PRIORITY_IR

    def test_checking_class(self):
        for kind in (
            MessageKind.CHECK_REQUEST,
            MessageKind.VALIDITY_REPORT,
            MessageKind.TLB_UPLOAD,
        ):
            assert make(kind).priority == PRIORITY_CHECK

    def test_data_class_is_lowest(self):
        for kind in (MessageKind.DATA_REQUEST, MessageKind.DATA_ITEM):
            assert make(kind).priority == PRIORITY_DATA

    def test_ordering_matches_paper(self):
        assert PRIORITY_IR < PRIORITY_CHECK < PRIORITY_DATA


class TestMessage:
    def test_remaining_bits_initialized(self):
        msg = make(MessageKind.DATA_ITEM, size=64)
        assert msg.remaining_bits == 64.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make(MessageKind.DATA_ITEM, size=-1)
