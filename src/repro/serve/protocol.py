"""Wire format of the sweep service: JSON lines, specs by value.

One message is one JSON object on one ``\\n``-terminated line — the
same framing as every WAL in the tree, chosen for the same reason: a
reader can always resynchronise on the next newline, and a torn line
corrupts exactly one message.  All messages carry a protocol version
(``v``); a server or client seeing a newer version than it speaks
rejects the message instead of mis-parsing it.

Specs travel **by value**: a submission carries each
:class:`~repro.exec.runspec.RunSpec`'s full :meth:`describe` payload —
the exact dict its content hash is computed over — so the server can
verify the hash it was quoted, re-materialise the spec for a worker on
any host, and never has to trust a client-chosen label.  The worker
decodes payloads with :func:`repro.exec.runspec.spec_from_payload`,
which is pinned by test to round-trip the content hash bit-for-bit and
rejects a payload whose reconstruction hashes differently.

Message kinds
-------------
Client to server::

    submit    {"specs": [<describe-dict>, ...], "client": "<name>",
               "deadline": <epoch-seconds, optional>,
               "retry_failed": <bool, optional>}

Server to client::

    accepted    {"n": N, "leased": L, "shared": S, "store": H}
    overloaded  {"retry_after": seconds, "message": "..."}
    result      {"spec": hash, "source": .., "seconds": .., "result":
                 <RunResult dict>, "progress": [done, total]}
    failed      {"spec": hash, "failure": <FailedRun dict>}
    complete    {"leased": L, "shared": S, "store": H, "quarantined": Q,
                 "expired": E}
    error       {"message": "..."}

``result``/``failed`` stream as specs resolve, in resolution order (not
submission order — the client reorders by hash); ``complete`` is always
the final message of a successful submission.  ``overloaded`` is
admission control's whole vocabulary: the server's in-flight table is
at capacity (or this client has too much outstanding), nothing was
reserved, and the client should retry after the quoted deterministic
``retry_after`` — it closes the connection like ``error`` does, but it
is an invitation, not a verdict.  ``deadline`` is an absolute
wall-clock bound that travels with the work; specs the fleet cannot
*start* by then resolve as ``kind="timeout"`` holes.  ``retry_failed``
asks the server to re-open previously failed (including quarantined)
specs instead of replaying their recorded failures.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.exec.runspec import RunSpec, payload_hash

#: Bump on incompatible message-layout changes; both ends reject newer.
PROTOCOL_VERSION = 1

MSG_SUBMIT = "submit"
MSG_ACCEPTED = "accepted"
MSG_OVERLOADED = "overloaded"
MSG_RESULT = "result"
MSG_FAILED = "failed"
MSG_COMPLETE = "complete"
MSG_ERROR = "error"


class ProtocolError(ValueError):
    """A message that cannot be honoured: malformed, unknown, or lying
    about its content (a spec payload that hashes differently than the
    spec it claims to describe)."""


def encode_message(kind: str, **fields: Any) -> bytes:
    """One protocol message as its wire line (newline included)."""
    record: Dict[str, Any] = {"v": PROTOCOL_VERSION, "kind": kind}
    record.update(fields)
    line = json.dumps(record, sort_keys=True)
    assert "\n" not in line  # one message is always exactly one line
    return (line + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises :class:`ProtocolError` when unusable."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparseable message: {exc}") from None
    if not isinstance(record, dict):
        raise ProtocolError("message is not a JSON object")
    if record.get("v", 0) > PROTOCOL_VERSION:
        raise ProtocolError(
            f"message speaks protocol v{record.get('v')}, "
            f"this end speaks v{PROTOCOL_VERSION}"
        )
    if not isinstance(record.get("kind"), str):
        raise ProtocolError("message has no kind")
    return record


# -- spec payloads -------------------------------------------------------------

def spec_payload(spec: RunSpec) -> Dict[str, Any]:
    """The JSON-ready identity payload a spec travels as."""
    return spec.describe()


def submit_message(specs: List[RunSpec], client: str,
                   deadline: Optional[float] = None,
                   retry_failed: bool = False) -> bytes:
    """The submission line for ``specs`` (order preserved, dupes kept).

    ``deadline`` is absolute epoch seconds; ``retry_failed`` asks the
    server to re-open recorded failures (quarantined specs included)
    instead of replaying them.  Both are omitted from the wire when at
    their defaults, so a plain submission is byte-identical to one from
    an older client.
    """
    fields: Dict[str, Any] = {
        "client": client,
        "specs": [spec_payload(spec) for spec in specs],
    }
    if deadline is not None:
        fields["deadline"] = deadline
    if retry_failed:
        fields["retry_failed"] = True
    return encode_message(MSG_SUBMIT, **fields)


def batch_hashes(record: Dict[str, Any]) -> Optional[List[str]]:
    """The content hashes a decoded ``submit`` record quotes, in order.

    None when the record is not a well-formed submission (the server
    answers ``error`` rather than raising at the caller).
    """
    specs = record.get("specs")
    if not isinstance(specs, list) or not specs:
        return None
    hashes = []
    for payload in specs:
        if not isinstance(payload, dict):
            return None
        hashes.append(payload_hash(payload))
    return hashes
