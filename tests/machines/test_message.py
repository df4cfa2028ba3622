"""Unit tests for message tokens and cost classes (paper Sections 3, 4.1).

Pricing a sent message is the port's job: tests/sim/test_send_path.py."""

import pytest

from repro.machines import message
from repro.machines.message import (
    MessageToken,
    MsgType,
    ParamPresence,
    QueueTag,
    token_cost,
)


def make_token(mtype=MsgType.R_PER, presence=ParamPresence.NONE,
               initiator=1, obj=1, queue=QueueTag.DISTRIBUTED):
    return MessageToken(mtype, initiator, obj, queue, presence)


class TestTokenCost:
    """Section 4.1's four action communication costs."""

    def test_bare_token(self):
        assert token_cost(ParamPresence.NONE, 100, 30) == 1.0

    def test_read_params_token(self):
        assert token_cost(ParamPresence.READ, 100, 30) == 1.0

    def test_user_information(self):
        assert token_cost(ParamPresence.USER_INFO, 100, 30) == 101.0

    def test_write_parameters(self):
        assert token_cost(ParamPresence.WRITE, 100, 30) == 31.0


class TestMessage:
    def test_token_is_frozen(self):
        token = make_token()
        with pytest.raises(AttributeError):
            token.type = MsgType.W_PER

    def test_describe_matches_paper_layout(self):
        token = MessageToken(MsgType.R_GNT, 3, 7, QueueTag.DISTRIBUTED,
                             ParamPresence.USER_INFO)
        assert token.describe() == "(R-GNT, 3, 7, d, ui)"


class TestAlphabet:
    def test_write_through_six_types_present(self):
        """The six Write-Through message types of Section 3."""
        for name in ("R_REQ", "W_REQ", "R_PER", "W_PER", "R_GNT", "W_INV"):
            assert hasattr(MsgType, name)

    def test_every_alias_is_the_member_of_its_name(self):
        """``machines.message`` aliases every member at module level
        (``PP_`` prefixes the presences); the unpacking follows member
        order, so a reordered enum would misname them."""
        for member in MsgType:
            assert getattr(message, member.name) is member
        for member in ParamPresence:
            assert getattr(message, "PP_" + member.name) is member

    def test_values_unique(self):
        values = [m.value for m in MsgType]
        assert len(values) == len(set(values))
