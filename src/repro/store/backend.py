"""Record text, root resolution and the shared types of the store.

:class:`~repro.store.ResultStore` keeps every record, counter, ledger
and checkpoint in one WAL-mode SQLite database. A record is stored as its
canonical JSON text (:func:`dump_record_text`) under the content address
from :mod:`repro.store.keys`, so ``repro store export`` bytes and warm
starts stay hex-exact.

Root syntax (everywhere a store root is accepted — ``--store``,
``$REPRO_STORE``, ``ResultStore(...)``):

* ``sqlite:PATH`` — the database file at ``PATH``;
* a path ending in ``.db`` / ``.sqlite`` / ``.sqlite3``, or naming an
  existing regular file — that database file;
* any other path — a directory holding the database as
  ``<dir>/store.sqlite``.

A directory holding an ``objects/`` record tree but no ``store.sqlite``
was written by an older release's directory backend. Opening it raises
``ValueError`` naming ``repro store migrate DIR DIR``, which imports it
(:mod:`repro.store.migrate`).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: Environment variable naming the store backend. ``sqlite``, the only
#: backend, is the one accepted value; unset means the same.
BACKEND_ENV_VAR = "REPRO_STORE_BACKEND"

#: Environment variable read by :func:`fsync_enabled` (default on). It
#: no longer changes store behaviour: SQLite runs ``synchronous=NORMAL``
#: under WAL either way. Benchmark host fingerprints still record it.
FSYNC_ENV_VAR = "REPRO_STORE_FSYNC"

#: Database filename inside a *directory* store root.
SQLITE_FILENAME = "store.sqlite"


class ResultStoreWarning(UserWarning):
    """Raised (as a warning) when a store record cannot be used."""


def fsync_enabled() -> bool:
    """Whether ``$REPRO_STORE_FSYNC`` asks for flushes (default: yes)."""
    raw = os.environ.get(FSYNC_ENV_VAR, "1").strip().lower()
    return raw not in ("0", "false", "no", "off")


def legacy_directory(root: Union[str, "os.PathLike[str]"]) -> Optional[Path]:
    """The old directory store ``root`` names, if it names one.

    ``file:DIR`` always does; a plain directory does when it holds an
    ``objects/`` record tree and no ``store.sqlite``.
    """
    raw = os.fspath(root)
    if raw.startswith("file:"):
        return Path(raw[len("file:"):])
    path = Path(raw)
    if (path / "objects").is_dir() and not (path / SQLITE_FILENAME).is_file():
        return path
    return None


def resolve_root(root: Union[str, "os.PathLike[str]"]) -> Tuple[Path, str]:
    """Resolve a store root to ``(database path, display root)``.

    ``display root`` is what the store reports as its root: the
    user-addressed path, e.g. the directory even when the database
    lives inside it. Raises ``ValueError`` for a ``$REPRO_STORE_BACKEND``
    other than ``sqlite`` and for an old directory store.
    """
    backend = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if backend not in ("", "sqlite"):
        raise ValueError(f"unknown store backend {backend!r} "
                         f"(the only backend is sqlite)")
    raw = os.fspath(root)
    if raw.startswith("sqlite:"):
        rest = raw[len("sqlite:"):]
        return Path(rest), rest
    legacy = legacy_directory(raw)
    if legacy is not None:
        raise ValueError(
            f"{legacy} is a directory store from an older release; "
            f"import it with `repro store migrate {raw} {legacy}`")
    path = Path(raw)
    if raw.endswith((".db", ".sqlite", ".sqlite3")) or path.is_file():
        return path, raw
    return path / SQLITE_FILENAME, raw


class RecordDocument(dict):
    """A parsed record document that carries the text it was read from.

    :meth:`~repro.store.ResultStore.fetch_record` returns one: the dict
    is the parsed record, and :attr:`text` is the exact stored text.
    That text is the document's canonical text
    (:func:`dump_record_text`), because every write stores that text
    and ``repro store verify`` reports a record whose text is not, so a
    reader that only serves the record writes :attr:`text` instead of
    serializing again. :attr:`text` is not updated when the dict
    changes: serialize a changed document anew.
    """

    __slots__ = ("text",)

    def __init__(self, data: dict, text: str):
        """Wrap parsed ``data`` and the ``text`` it was parsed from."""
        super().__init__(data)
        self.text = text


def dump_record_text(record: dict) -> str:
    """The canonical serialized form of one record document.

    The text the store's ``records`` table holds. Older releases wrote
    the same bytes into each ``objects/`` record file, which is why
    ``repro store migrate`` imports such a store byte-identically.

    The text is ``json.dumps(record, indent=1, sort_keys=True)``, built
    faster (docs/STORE.md §4 has the argument): a *flat* container (only
    scalar values) is one C-encoder call whose item separator carries
    the line break and indent of its depth, and a non-flat sub-document
    below depth 1 (a provenance ``cluster``, a result's ``phase_rows``)
    comes from :data:`_SUBDOCS`, keyed by its compact canonical text.
    The indented text is a function of the compact text, and JSON text
    never holds a raw newline, so a hit moved to depth ``d`` by putting
    ``d`` spaces after every ``"\\n"`` is exact. Anything else — non-str
    keys, non-JSON types, a missing C encoder — takes the stdlib call.
    """
    if c_make_encoder is None:  # pragma: no cover - pure-Python json
        return json.dumps(record, indent=1, sort_keys=True)
    try:
        return _render(record, 0)
    except (_Fallback, TypeError, ValueError, RecursionError):
        return json.dumps(record, indent=1, sort_keys=True)


def compact_text(tree: object) -> str:
    """``json.dumps(tree, sort_keys=True, separators=(",", ":"))`` of an
    acyclic tree.

    One call of a prebuilt C encoder (no per-call encoder set-up); the
    stdlib call where the C encoder is missing.
    """
    if _COMPACT is None:  # pragma: no cover - pure-Python json
        return json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return "".join(_COMPACT(tree, 0))


class _Fallback(Exception):
    """The fast record-text path met something only the stdlib handles."""


def _not_json(obj: object) -> object:
    """C-encoder ``default`` hook, raising like ``JSONEncoder.default``."""
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


def _c_encoder(key_separator: str, item_separator: str):
    """A sorted-keys, ASCII, NaN-allowing C encoder (no cycle check)."""
    if c_make_encoder is None:  # pragma: no cover - pure-Python json
        return None
    return c_make_encoder(None, _not_json, encode_basestring_ascii, None,
                          key_separator, item_separator, True, False, True)


_COMPACT = _c_encoder(":", ",")

#: Exact types the fast path writes as JSON scalars (and as keys).
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_STR_TYPE = frozenset((str,))

#: Indent level -> C encoder whose item separator starts that level's
#: lines, so a flat container is one call (see :func:`_render`).
_FLAT_ENCODERS: Dict[int, object] = {}

#: Most bytes (compact keys plus indented texts) :data:`_SUBDOCS` holds
#: before it starts over. Its hits come from records written close
#: together (a batch's siblings share their representative's
#: ``phase_rows``; a campaign's records share their cluster), not from
#: serving stored records again, which answer with their stored text.
SUBDOC_MEMO_BYTES = 1 << 18

#: Compact canonical text of a non-flat sub-document -> its indented
#: text at depth 0. Readers make one ``get`` (atomic under the GIL), so
#: service threads share it without a lock; only the rare insert takes
#: :data:`_SUBDOC_LOCK`, to keep :data:`_subdoc_bytes` (the bytes held)
#: exact.
_SUBDOCS: Dict[str, str] = {}
_subdoc_bytes = 0
_SUBDOC_LOCK = threading.Lock()


def _render(obj: object, depth: int) -> str:
    """The ``indent=1, sort_keys=True`` text of a container whose
    opening bracket sits at indent ``depth``."""
    kind = type(obj)
    mapping = kind is dict or kind is RecordDocument
    if mapping:
        if not obj:
            return "{}"
        values = obj.values()
    elif kind is list or kind is tuple:
        if not obj:
            return "[]"
        values = obj
    else:
        raise _Fallback(kind.__name__)
    if _SCALAR_TYPES.issuperset(map(type, values)):
        if mapping and not _STR_TYPE.issuperset(map(type, obj)):
            raise _Fallback("non-str key")
        inner = depth + 1
        encoder = _FLAT_ENCODERS.get(inner)
        if encoder is None:
            encoder = _c_encoder(": ", ",\n" + " " * inner)
            _FLAT_ENCODERS[inner] = encoder
        text = "".join(encoder(obj, 0))
        return (text[0] + "\n" + " " * inner + text[1:-1] + "\n"
                + " " * depth + text[-1])
    if depth < 2:
        return _members(obj, depth)
    # A non-flat sub-document below depth 1: memoized at depth 0.
    key = compact_text(obj)
    text = _SUBDOCS.get(key)
    if text is None:
        text = _members(obj, 0)
        _remember(key, text)
    return text.replace("\n", "\n" + " " * depth)


def _members(obj: object, depth: int) -> str:
    """A non-empty, non-flat container's text, one member per line."""
    inner = depth + 1
    separator = ",\n" + " " * inner
    if isinstance(obj, dict):
        if not _STR_TYPE.issuperset(map(type, obj)):
            raise _Fallback("non-str key")
        keys = sorted(obj)
        body = separator.join([
            encode_basestring_ascii(key) + ": " + _value(obj[key], inner)
            for key in keys])
        return "{\n" + " " * inner + body + "\n" + " " * depth + "}"
    body = separator.join([_value(value, inner) for value in obj])
    return "[\n" + " " * inner + body + "\n" + " " * depth + "]"


def _value(value: object, depth: int) -> str:
    """One member's text; a container member opens at indent ``depth``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind in _SCALAR_TYPES:
        return _COMPACT(value, 0)[0]
    return _render(value, depth)


def _remember(key: str, text: str) -> None:
    """Store one sub-document's depth-0 text, starting over when full."""
    global _subdoc_bytes
    size = len(key) + len(text)  # both ASCII: characters are bytes
    if size > SUBDOC_MEMO_BYTES:
        return
    with _SUBDOC_LOCK:
        if _subdoc_bytes + size > SUBDOC_MEMO_BYTES:
            _SUBDOCS.clear()
            _subdoc_bytes = 0
        _SUBDOCS[key] = text
        _subdoc_bytes += size


@dataclass
class VerifyProblem:
    """One integrity failure found by a store ``verify`` pass."""

    path: Path
    key: str
    problem: str

    def render(self) -> str:
        """One-line human form (used by ``repro store verify``)."""
        return f"{self.key[:16] or self.path.name}  {self.problem}"


@dataclass
class VerifyReport:
    """What a store fsck pass found (and optionally swept)."""

    checked: int = 0
    ok: int = 0
    meta_ok: bool = True
    problems: List[VerifyProblem] = field(default_factory=list)
    swept: int = 0

    @property
    def clean(self) -> bool:
        """Whether every record (and the metadata) verified."""
        return self.meta_ok and not self.problems
