"""Every layer that knows a keyspace command knows the same set of them.

A command is written down in up to five places: the
:class:`~repro.redisim.server.RedisServer` method, the
:class:`~repro.redisim.client.RedisClient` method (and ``Pipeline``
method, where one exists) that sends it, its
:data:`repro.net.client._CODEC` row, its RESP handler in
:func:`repro.net.server._build_command_table`, and -- when pipelines may
carry it -- :attr:`RedisServer._TXN_COMMANDS`.  A command added to, or
deleted from, only some of them fails here.
"""

import inspect
import re

from repro.net.client import _CODEC, SocketRedisClient
from repro.net.server import _build_command_table
from repro.redisim.client import Pipeline, RedisClient
from repro.redisim.server import RedisServer

#: ``PING`` is answered by the RESP front end itself: a liveness probe of
#: the connection, with no keyspace method behind it.
PROBE = "ping"

#: Server methods that are not commands: lifecycle and the batch runner.
NOT_COMMANDS = {"close", "wake", "transaction", "time_ms"}

#: What an encoder is handed for a required parameter of this name.
SAMPLES = {"keys": ["k"], "fields": {"f": "v"}, "streams": {"s": ">"}}


def server_commands():
    return {
        name
        for name, member in vars(RedisServer).items()
        if not name.startswith("_") and inspect.isfunction(member)
    } - NOT_COMMANDS


def sent(cls):
    """The command names ``cls``'s own methods send (``_call`` / ``_queue``)."""
    return set(re.findall(r'_(?:call|queue)\(\s*"(\w+)"', inspect.getsource(cls)))


def encoded_verb(name):
    """The first RESP word the ``_CODEC`` row ``name`` puts on the wire."""
    encode, _decode = _CODEC[name]
    required = [
        parameter.name
        for parameter in inspect.signature(encode).parameters.values()
        if parameter.default is parameter.empty
        and parameter.kind is parameter.POSITIONAL_OR_KEYWORD
    ]
    return encode(*(SAMPLES.get(param, "x") for param in required))[0]


def test_codec_rows_are_exactly_the_server_commands():
    assert set(_CODEC) - {PROBE} == server_commands()


def test_client_methods_send_exactly_the_server_commands():
    assert sent(RedisClient) == server_commands()
    assert sent(Pipeline) <= server_commands()
    assert sent(SocketRedisClient) == {PROBE}


def test_every_encoded_verb_has_a_resp_handler():
    handlers = _build_command_table(RedisServer())
    verbs = {name: encoded_verb(name) for name in _CODEC}
    assert {name: verb for name, verb in verbs.items() if verb not in handlers} == {}


def test_every_resp_handler_is_reached_from_a_codec_row():
    handlers = set(_build_command_table(RedisServer())) - {PROBE.upper()}
    assert handlers - {encoded_verb(name) for name in _CODEC} == set()


def test_transactions_admit_every_pipelined_command_and_only_server_commands():
    assert sent(Pipeline) <= RedisServer._TXN_COMMANDS <= server_commands()
