"""Seeded operation streams for the three benchmark workloads.

Each ``plan_*`` function turns a seed into a :class:`Plan`: the set-up
steps that seed the device and a list of sessions, each a list of
operations. The generator runs a shadow model of every view while it
draws operations, so every operation carries the result a correct system
must return (a ``(length, crc32)`` digest for file reads, the row tuples
for queries, the file listing for a review) and every session ends with
untimed checks of the confinement goals:

- S1: nothing a delegate ``B^A`` wrote is visible to ``A`` or to a
  bystander app before ``A`` commits it;
- S2: what ``A`` committed is visible to both afterwards.

Operation tuples are ``(kind, cls, actor, *args)``. ``cls`` is the
latency class the driver files the timing under (``dr``/``dw`` delegate
read/write, ``i`` initiator, ``launch``, ``commit``) or ``None`` for
untimed steps. ``actor`` is a package name, or ``"B^A"`` for the
delegate instance of ``B`` running for ``A``.

The program under test never sees the seed; it only receives the
generated paths, payloads and rows.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.cow import VOLATILE_PK_BASE

EXTDIR = "/storage/sdcard"
EXT_TMP = EXTDIR + "/tmp"
DATA = "/data/data"
KB = 1024
MB = 1024 * 1024


# Latency classes.
DELEGATE_READ = "dr"
DELEGATE_WRITE = "dw"
INITIATOR = "i"
LAUNCH = "launch"
COMMIT = "commit"
CLASSES = (DELEGATE_READ, DELEGATE_WRITE, INITIATOR, LAUNCH, COMMIT)
#: Classes whose operations take half a millisecond or more on every
#: workload: the driver times the CPU control on either side of each (see
#: ``Runner.calibrated``). Shorter operations would spend more time in the
#: control than in the program, so they are scaled by the control's
#: timings around them.
BRACKETED = frozenset({LAUNCH, COMMIT})

# Packages of the benchmark's own apps.
NOTES = "com.bench.notes"
KEYBOARD = "com.bench.keyboard"
MAIL = "com.bench.mail"
CHAT = "com.bench.chat"
BROWSER = "com.bench.browser"
FILES = "com.bench.files"
VIEWER = "com.bench.viewer"  # the bystander in every workload

# The Table 5 apps used by delegate_sessions.
PDF = "com.adobe.reader"
SCANNER = "com.intsig.camscanner"
CAMERA = "com.magix.camera_mx"

WORDS = ("_id", "word", "frequency")
WARMUP_SESSIONS = 8
#: Live delegate processes kept before the oldest is killed, as a
#: low-memory killer would.
PROCESS_CAP = 6
#: Sessions in one epoch: the plan a timed run replays on a freshly booted
#: device each time it is used up. Files and sessions state grows with
#: every launch (the process table keeps dead processes), so an epoch
#: bounds what an operation meets; the provider's sessions are slow, so
#: its epoch is short.
EPOCH_SESSIONS = {
    "delegate_files": 256,
    "delegate_provider": 32,
    "delegate_sessions": 256,
}


def delegate(app: str, initiator: str) -> str:
    """Actor key of the delegate instance ``app^initiator``."""
    return f"{app}^{initiator}"


def digest(data: bytes) -> Tuple[int, int]:
    """What a file read is checked against: length and CRC-32."""
    return (len(data), zlib.crc32(data))


def rows_digest(rows: Sequence[Sequence[object]]) -> int:
    """CRC-32 of a query result's rows, order included."""
    return zlib.crc32(repr([tuple(r) for r in rows]).encode())


@dataclass
class Plan:
    """Everything one workload run does, fixed by the seed."""

    apps: List[str]
    setup: List[tuple]
    sessions: List[List[tuple]]
    bracketed: FrozenSet[str] = BRACKETED

    def ops(self):
        for session in self.sessions:
            yield from session

    def stream_digest(self) -> str:
        """SHA-256 over the whole op stream and set-up (payloads by CRC)."""
        hasher = hashlib.sha256()
        for op in list(self.setup) + list(self.ops()):
            hasher.update(_canonical(op).encode())
            hasher.update(b"\n")
        return hasher.hexdigest()


def _canonical(value: object) -> str:
    if isinstance(value, (bytes, bytearray)):
        return f"b{len(value)}:{zlib.crc32(value):08x}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{k}={_canonical(v)}" for k, v in items) + "}"
    return repr(value)


class _Payloads:
    """A seeded pool of payloads, so a run holds few distinct buffers."""

    def __init__(self, rng: random.Random, size: int, count: int = 32) -> None:
        self._pool = [rng.randbytes(size) for _ in range(count)]
        self._rng = rng

    def pick(self) -> bytes:
        return self._rng.choice(self._pool)


# ----------------------------------------------------------------------
# delegate_files
# ----------------------------------------------------------------------

PRIV_DIR = f"{DATA}/{NOTES}/files"
PRIV_FILES = 256
#: Priv(B) files at the paper's large size (1 MB); the rest are 4 KB.
LARGE_PRIV = [i for i in range(PRIV_FILES) if i % 64 == 31]
SMALL_PRIV = [i for i in range(PRIV_FILES) if i % 64 != 31]
#: Sessions between appends to a 1 MB file.
LARGE_APPEND_EVERY = 16
#: Sessions between reads of a 1 MB file.
LARGE_READ_EVERY = 4
SHARED_FILES = 64
OUT_SLOTS = 32
MAIL_FILES = 32

# Per-session op counts for delegate_files (the order is shuffled).
FILES_SESSION = (
    ["priv_read"] * 14
    + ["ext_read"] * 3
    + ["stat"] * 3
    + ["fresh_write"] * 3
    + ["append"] * 3
    + ["ext_write"] * 2
    + ["unlink", "rename"]
    + ["a_read"] * 2
    + ["a_write", "a_pub_read", "a_pub_read", "a_pub_write"]
)
#: One merged-directory listing every this many sessions.
READDIR_EVERY = 4


def _priv_name(i: int) -> str:
    return f"{PRIV_DIR}/doc{i:03d}"


def plan_files(seed: int, sessions: int) -> Plan:
    """B^A edits documents over internal and external storage."""
    rng = random.Random(f"delegate_files:{seed}")
    small = _Payloads(rng, 4 * KB)
    B, A, C = NOTES, MAIL, VIEWER
    BA = delegate(B, A)
    setup: List[tuple] = []
    priv: Dict[str, bytes] = {}
    for i in range(PRIV_FILES):
        data = rng.randbytes(MB) if i in LARGE_PRIV else small.pick()
        priv[_priv_name(i)] = data
    setup.append(("mkdirs", None, B, PRIV_DIR))
    setup.extend(("write", None, B, path, data) for path, data in priv.items())
    state = f"{DATA}/{B}/state"
    setup.append(("mkdirs", None, B, state))
    setup.append(("write", None, B, f"{state}/session.bin", rng.randbytes(KB)))
    pub: Dict[str, bytes] = {}
    for i in range(SHARED_FILES):
        pub[f"{EXTDIR}/shared/p{i:02d}"] = small.pick()
    setup.append(("mkdirs", None, A, f"{EXTDIR}/shared"))
    setup.append(("mkdirs", None, A, f"{EXTDIR}/out"))
    setup.extend(("write", None, A, path, data) for path, data in pub.items())
    mail: Dict[str, bytes] = {}
    for i in range(MAIL_FILES):
        mail[f"{DATA}/{A}/files/m{i:02d}"] = small.pick()
    setup.append(("mkdirs", None, A, f"{DATA}/{A}/files"))
    setup.extend(("write", None, A, path, data) for path, data in mail.items())

    large = [_priv_name(i) for i in LARGE_PRIV]
    out: List[List[tuple]] = []
    for number in range(sessions):
        session: List[tuple] = []
        state_blob = rng.randbytes(KB)
        session.append(
            ("launch", LAUNCH, None, B, A, "main", {"state": state_blob}, {"initiator": A},
             len(state_blob))
        )
        npriv: Dict[str, Optional[bytes]] = {}  # Priv(B^A) overlay; None = deleted
        vol: Dict[str, bytes] = {}  # Vol(A), by EXTDIR path
        appended_priv: List[str] = []
        # B^A's internal 4 KB files; 1 MB files are touched on a schedule.
        visible = [_priv_name(i) for i in SMALL_PRIV]

        def b_internal(path: str) -> Optional[bytes]:
            if path in npriv:
                return npriv[path]
            return priv.get(path)

        large_append = number % LARGE_APPEND_EVERY == 0
        kinds = list(FILES_SESSION)
        if number % READDIR_EVERY == 0:
            kinds.append("readdir")
        if number % LARGE_READ_EVERY == 1:
            kinds[kinds.index("priv_read")] = "large_read"
        rng.shuffle(kinds)
        fresh = 0
        for kind in kinds:
            if kind == "priv_read":
                path = rng.choice(visible)
                session.append(("read", DELEGATE_READ, BA, path, digest(b_internal(path))))
            elif kind == "large_read":
                path = _priv_name(rng.choice(LARGE_PRIV))
                session.append(("read", DELEGATE_READ, BA, path, digest(b_internal(path))))
            elif kind == "stat":
                path = rng.choice(visible)
                session.append(("stat", DELEGATE_READ, BA, path, len(b_internal(path))))
            elif kind == "readdir":
                names = sorted(p.rsplit("/", 1)[1] for p in visible + large)
                session.append(("readdir", DELEGATE_READ, BA, PRIV_DIR, names))
            elif kind == "ext_read":
                path = rng.choice(sorted(set(pub) | set(vol)))
                data = vol.get(path, pub.get(path))
                session.append(("read", DELEGATE_READ, BA, path, digest(data)))
            elif kind == "fresh_write":
                path = f"{PRIV_DIR}/new{fresh}"
                fresh += 1
                data = small.pick()
                npriv[path] = data
                visible.append(path)
                session.append(("write", DELEGATE_WRITE, BA, path, data))
            elif kind == "append":
                # Appends go to pre-existing 4 KB files of Priv(B), except
                # that one append every LARGE_APPEND_EVERY sessions copies
                # up a 1 MB file, so the copy-up volume does not depend on
                # the seed.
                if large_append:
                    path = _priv_name(rng.choice(LARGE_PRIV))
                    large_append = False
                else:
                    path = rng.choice([p for p in visible if p in priv])
                data = rng.randbytes(64)
                npriv[path] = b_internal(path) + data
                session.append(("append", DELEGATE_WRITE, BA, path, data))
                appended_priv.append(path)
            elif kind == "ext_write":
                path = f"{EXTDIR}/out/d{rng.randrange(OUT_SLOTS):02d}"
                data = small.pick()
                vol[path] = data
                session.append(("write", DELEGATE_WRITE, BA, path, data))
            elif kind == "unlink":
                path = rng.choice(visible)
                npriv[path] = None
                visible.remove(path)
                session.append(("unlink", DELEGATE_WRITE, BA, path))
            elif kind == "rename":
                old = rng.choice(visible)
                new = f"{PRIV_DIR}/renamed"
                data = b_internal(old)
                npriv[old] = None
                npriv[new] = data
                visible.remove(old)
                visible.append(new)
                session.append(("rename", DELEGATE_WRITE, BA, old, new))
            elif kind == "a_read":
                path = rng.choice(sorted(mail))
                session.append(("read", INITIATOR, A, path, digest(mail[path])))
            elif kind == "a_write":
                path = rng.choice(sorted(mail))
                mail[path] = small.pick()
                session.append(("write", INITIATOR, A, path, mail[path]))
            elif kind == "a_pub_read":
                path = rng.choice(sorted(pub))
                session.append(("read", INITIATOR, A, path, digest(pub[path])))
            elif kind == "a_pub_write":
                path = f"{EXTDIR}/shared/p{rng.randrange(SHARED_FILES):02d}"
                pub[path] = small.pick()
                session.append(("write", INITIATOR, A, path, pub[path]))
        _end_file_session(session, A, C, pub, vol, priv, appended_priv)
        out.append(session)
    return Plan(
        apps=[B, A, C],
        setup=setup,
        sessions=out,
    )


def _end_file_session(session, A, C, pub, vol, priv, appended_priv) -> None:
    """S1 check, A's review-and-commit, S2 check, Clear-Priv(B^A)."""
    hidden = {p: digest(pub[p]) if p in pub else None for p in sorted(vol)}
    tmp = {EXT_TMP + p[len(EXTDIR):]: digest(d) for p, d in sorted(vol.items())}
    priv_now = {p: digest(priv[p]) for p in sorted(set(appended_priv))}
    session.append(("check_hidden", None, A, hidden, tmp, [C], priv_now))
    chosen = sorted(vol)[:1]  # A keeps the first of B^A's outputs
    listing = sorted(tmp)
    session.append(
        ("commit", COMMIT, A, [EXT_TMP + p[len(EXTDIR):] for p in chosen], listing)
    )
    for path in chosen:
        pub[path] = vol[path]
    visible = {p: digest(pub[p]) if p in pub else None for p in sorted(vol)}
    session.append(("check_visible", None, A, visible, [C]))
    session.append(("clear_priv", None, A))


# ----------------------------------------------------------------------
# delegate_provider
# ----------------------------------------------------------------------

DICT_ROWS = 1000
WHITEOUT = None
#: The order of a delegate_provider session (after B's launch). It is fixed
#: so that each kind of operation meets the same delta size in every
#: session: timings then form a few tight clusters, and each percentile
#: falls inside one. ``a_*`` are the initiator's own operations; ``full``
#: (a full ``ORDER BY _id`` query) runs every ``FULL_QUERY_EVERY`` sessions.
PROVIDER_SESSION = ["point", "a_look", "point", "update", "insert", "update", "relaunch",
                    "delete", "delete", "full", "a_retire"]
FULL_QUERY_EVERY = 4


def _word(rng: random.Random, tag: str) -> str:
    letters = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(4, 9)))
    return f"{letters}{tag}"


def plan_provider(seed: int, sessions: int) -> Plan:
    """B^A edits the User Dictionary for two initiators."""
    rng = random.Random(f"delegate_provider:{seed}")
    B, C = KEYBOARD, VIEWER
    initiators = [MAIL, CHAT]
    setup: List[tuple] = []
    state = f"{DATA}/{B}/state"
    setup.append(("mkdirs", None, B, state))
    setup.append(("write", None, B, f"{state}/session.bin", rng.randbytes(KB)))
    primary: Dict[int, Tuple[str, int]] = {}
    for i in range(1, DICT_ROWS + 1):
        primary[i] = (_word(rng, f"s{i}"), rng.randint(1, 255))
    setup.append(("seed_rows", None, MAIL, [primary[i] for i in range(1, DICT_ROWS + 1)]))
    committed_inserts: Dict[str, List[int]] = {a: [] for a in initiators}
    keys = list(primary)  # primary keys, in a seeded order

    out: List[List[tuple]] = []
    for number in range(sessions):
        A = initiators[number % 2]
        BA = delegate(B, A)
        session: List[tuple] = []
        launches = [
            ("launch", LAUNCH, None, B, A, "main", {"state": blob}, {"initiator": A}, len(blob))
            for blob in (rng.randbytes(KB), rng.randbytes(KB))
        ]
        session.append(launches[0])
        delta: Dict[int, Optional[Tuple[str, int]]] = {}

        def seen(key: int) -> Optional[Tuple[str, int]]:
            """The row B^A sees under ``key`` (None when absent)."""
            return delta[key] if key in delta else primary.get(key)

        def pick() -> int:
            """A word of the primary table that B^A still sees."""
            while True:
                key = rng.choice(keys)
                if seen(key) is not None:
                    return key

        def row(key: int, value: Tuple[str, int]) -> tuple:
            return (key, value[0], value[1])

        for kind in PROVIDER_SESSION:
            if kind == "full" and number % FULL_QUERY_EVERY:
                continue
            if kind == "a_look":
                # A reads or edits a word, and (a_retire) prunes the oldest
                # word it committed.
                kind = "a_point" if (number // 2) % 2 else "a_update"
            if kind == "relaunch":
                # The user brings B up for A a second time; later ops go
                # to the new instance.
                session.append(launches[1])
            if kind == "point":
                key = pick()
                session.append(("query_id", DELEGATE_READ, BA, key, [row(key, seen(key))]))
            elif kind == "full":
                merged = {k: v for k, v in primary.items() if k not in delta}
                merged.update((k, v) for k, v in delta.items() if v is not WHITEOUT)
                expected = [row(k, merged[k]) for k in sorted(merged)]
                session.append(("query_all", DELEGATE_READ, BA, rows_digest(expected)))
            elif kind == "update":
                key = pick()
                frequency = rng.randint(1, 255)
                delta[key] = (seen(key)[0], frequency)
                session.append(("update", DELEGATE_WRITE, BA, key, frequency, 1))
            elif kind == "insert":
                key = max([VOLATILE_PK_BASE - 1] + list(delta)) + 1
                value = (_word(rng, f"d{number}"), rng.randint(1, 255))
                delta[key] = value
                session.append(("insert", DELEGATE_WRITE, BA, value[0], value[1], key))
            elif kind == "delete":
                key = pick()
                delta[key] = WHITEOUT
                session.append(("delete", DELEGATE_WRITE, BA, key, 1))
            elif kind == "a_point":
                key = rng.choice(keys)
                session.append(("query_id", INITIATOR, A, key, [row(key, primary[key])]))
            elif kind == "a_update":
                key = rng.choice(keys)
                frequency = rng.randint(1, 255)
                primary[key] = (primary[key][0], frequency)
                session.append(("update", INITIATOR, A, key, frequency, 1))
            elif kind == "a_retire":
                # A prunes a word it committed earlier, which keeps the
                # table near its seeded size; with none yet, it looks one up.
                if committed_inserts[A]:
                    key = committed_inserts[A].pop(0)
                    del primary[key]
                    keys.remove(key)
                    session.append(("delete", INITIATOR, A, key, 1))
                else:
                    key = rng.choice(keys)
                    session.append(("query_id", INITIATOR, A, key, [row(key, primary[key])]))
        # S1: A and the bystander still see exactly the primary table.
        table = rows_digest([row(k, primary[k]) for k in sorted(primary)])
        session.append(("check_rows", None, A, [A, C], table))
        # A reviews Vol(A) and commits both words B^A wrote: the one it
        # added and the one it changed (deletes are not committable).
        review = sorted((k, v[0], v[1]) for k, v in delta.items() if v is not WHITEOUT)
        chosen = [k for k, _w, _f in review]
        for key in chosen:
            value = delta[key]
            if key >= VOLATILE_PK_BASE:
                public = max(primary) + 1
                committed_inserts[A].append(public)
                keys.append(public)
            else:
                public = key
            primary[public] = value
        session.append(("commit_rows", COMMIT, A, review, chosen))
        # S2: both see the primary table with the committed words.
        table = rows_digest([row(k, primary[k]) for k in sorted(primary)])
        session.append(("check_rows", None, A, [A, C], table))
        session.append(("clear_priv", None, A))
        out.append(session)
    return Plan(
        apps=[B, MAIL, CHAT, C],
        setup=setup,
        sessions=out,
        # Every provider operation takes milliseconds.
        bracketed=frozenset(CLASSES),
    )


# ----------------------------------------------------------------------
# delegate_sessions
# ----------------------------------------------------------------------

DOCS_PER_INITIATOR = 2
PAGES_PER_INITIATOR = 4
BASE_PHOTOS = 16
DOC_SIZE = 128 * KB
PAGE_SIZE = 16 * KB
FRAME_SIZE = 32 * KB
#: Committed items an initiator keeps before pruning the oldest, and how
#: many it views each session.
KEEP_ITEMS = 6
INITIATOR_VIEWS = 3
#: An initiator clears Priv(x^A) every this many of its own sessions.
CLEAR_PRIV_EVERY = 4


def plan_sessions(seed: int, sessions: int) -> Plan:
    """Table 5 tasks launched as delegates for four initiators."""
    rng = random.Random(f"delegate_sessions:{seed}")
    frames = _Payloads(rng, FRAME_SIZE)
    initiators = [MAIL, CHAT, BROWSER, FILES]
    C = VIEWER
    setup: List[tuple] = []
    docs: Dict[str, List[Tuple[str, bytes]]] = {}
    pages: Dict[str, List[Tuple[str, bytes]]] = {}
    bases: Dict[str, List[str]] = {}
    pub: Dict[str, bytes] = {}
    setup.append(("mkdirs", None, MAIL, f"{EXTDIR}/DCIM/Camera"))
    for A in initiators:
        home = f"{DATA}/{A}/files"
        setup.append(("mkdirs", None, A, home))
        docs[A] = [(f"{home}/doc{k}.pdf", rng.randbytes(DOC_SIZE)) for k in range(DOCS_PER_INITIATOR)]
        pages[A] = [(f"{home}/page{k}.png", rng.randbytes(PAGE_SIZE)) for k in range(PAGES_PER_INITIATOR)]
        setup.extend(("write", None, A, p, d) for p, d in docs[A] + pages[A])
        short = A.rsplit(".", 1)[1]
        bases[A] = []
        for k in range(BASE_PHOTOS):
            path = f"{EXTDIR}/DCIM/Camera/{short}{k:02d}.jpg"
            pub[path] = rng.randbytes(FRAME_SIZE // 4)
            bases[A].append(path)
            setup.append(("write", None, A, path, pub[path]))
    media: Dict[int, Tuple[str, str]] = {}  # public id -> (_data, title)
    items: Dict[str, List[Tuple[str, Optional[int]]]] = {a: [] for a in initiators}
    rounds: Dict[str, int] = {a: 0 for a in initiators}
    shot = 0

    out: List[List[tuple]] = []
    for number in range(sessions):
        A = initiators[number % len(initiators)]
        session: List[tuple] = []
        vol: Dict[str, bytes] = {}
        vol_media: List[Tuple[int, str]] = []  # (volatile id, _data)
        blocks: List[List[tuple]] = []
        edit_source = bases[A][rounds[A] % BASE_PHOTOS]
        tasks = ["open", "scan", "capture"] + (["edit"] if rounds[A] % 2 else [])

        def add_media(path: str) -> str:
            vid = max([VOLATILE_PK_BASE - 1] + [v for v, _p in vol_media]) + 1
            vol_media.append((vid, path))
            name = path.rsplit("/", 1)[1]
            vol[f"{EXTDIR}/DCIM/.thumbnails/{name}.thumb"] = b"THUMB:" + vol[path][:16]
            return name

        for task in tasks:
            block: List[tuple] = []
            if task == "open":
                app = PDF
                path, data = rng.choice(docs[A])
                name = path.rsplit("/", 1)[1]
                result = {"name": name, "bytes": len(data), "pages": max(1, len(data) // 4096)}
                block.append(("launch", LAUNCH, None, app, A, "view", {"path": path}, result, 0))
                block.append(("read", DELEGATE_READ, delegate(app, A), path, digest(data)))
                block.append(("stat", DELEGATE_READ, delegate(app, A), path, len(data)))
                note = rng.randbytes(256)
                block.append(("write", DELEGATE_WRITE, delegate(app, A),
                              f"{DATA}/{app}/files/bookmark-{name}", note))
            elif task == "scan":
                app = SCANNER
                path, page = rng.choice(pages[A])
                name = path.rsplit("/", 1)[1]
                image = f"{EXTDIR}/CamScanner/{name}.jpg"
                thumb = f"{EXTDIR}/CamScanner/.thumb/{name}.jpg"
                log = f"{EXTDIR}/CamScanner/scanner.log"
                vol[image] = b"SCANNED:" + page
                vol[thumb] = b"THUMB:" + page[:8]
                vol[log] = vol.get(log, pub.get(log, b"")) + f"scanned {name} ({len(page)} bytes)\n".encode()
                result = {"image": image, "thumbnail": thumb, "name": name}
                block.append(("launch", LAUNCH, None, app, A, "scan", {"path": path}, result,
                              len(page)))
                block.append(("read", DELEGATE_READ, delegate(app, A), image, digest(vol[image])))
                block.append(("stat", DELEGATE_READ, delegate(app, A), thumb, len(vol[thumb])))
                export = f"{EXTDIR}/CamScanner/export/{name}.pdf"
                vol[export] = rng.randbytes(2 * KB)
                block.append(("write", DELEGATE_WRITE, delegate(app, A), export, vol[export]))
            else:
                app = CAMERA
                if task == "capture":
                    shot += 1
                    frame = frames.pick()
                    path = f"{EXTDIR}/DCIM/Camera/IMG_{shot:04d}.jpg"
                    vol[path] = frame
                    extras = {"frame": frame}
                    wbytes = len(frame)
                else:
                    source = edit_source
                    original = vol.get(source, pub.get(source))
                    path = f"{EXTDIR}/DCIM/Camera/{source.rsplit('/', 1)[1].rsplit('.', 1)[0]}_edit.jpg"
                    vol[path] = b"EDITED:" + original
                    extras = {"path": source}
                    wbytes = len(vol[path])
                add_media(path)
                block.append(("launch", LAUNCH, None, app, A, task, extras, {"path": path},
                              wbytes))
                block.append(("read", DELEGATE_READ, delegate(app, A), path, digest(vol[path])))
                block.append(("stat", DELEGATE_READ, delegate(app, A), path, len(vol[path])))
                sidecar = path[:-4] + ".xmp"
                vol[sidecar] = rng.randbytes(512)
                block.append(("write", DELEGATE_WRITE, delegate(app, A), sidecar, vol[sidecar]))
            blocks.append(block)
        # A's own operations: prune its oldest committed items beyond
        # KEEP_ITEMS, view items it keeps (or its documents), save a note.
        while len(items[A]) > KEEP_ITEMS:
            path, media_id = items[A].pop(0)
            block = []
            if path in pub and not any(p == path for p, _m in items[A]):
                del pub[path]
                block.append(("unlink", INITIATOR, A, path))
            if media_id is not None:
                del media[media_id]
                block.append(("delete_media", INITIATOR, A, media_id, 1))
            if block:
                blocks.append(block)
        kept = [p for p, _m in items[A] if p in pub]
        for _ in range(INITIATOR_VIEWS):
            if kept:
                path = rng.choice(kept)
                blocks.append([("read", INITIATOR, A, path, digest(pub[path]))])
            else:
                path, data = rng.choice(docs[A])
                blocks.append([("read", INITIATOR, A, path, digest(data))])
        note = rng.randbytes(KB)
        blocks.append([("write", INITIATOR, A, f"{DATA}/{A}/files/note{rounds[A] % 8}", note)])
        # Launch blocks keep their order relative to one another; the
        # initiator's own blocks are interleaved among them.
        order = sorted(range(len(blocks)), key=lambda i: (rng.random() if i >= len(tasks) else i / len(tasks)))
        for index in order:
            session.extend(blocks[index])

        hidden = {p: digest(pub[p]) if p in pub else None for p in sorted(vol)}
        tmp = {EXT_TMP + p[len(EXTDIR):]: digest(d) for p, d in sorted(vol.items())}
        media_rows = [(k, media[k][0]) for k in sorted(media)]
        session.append(("check_hidden", None, A, hidden, tmp, [C], {}))
        session.append(("check_media", None, A, media_rows, [C]))
        keep = [p for p in sorted(vol) if _committable(p)]
        rows = [(vid, p) for vid, p in vol_media if p in keep]
        allocated: List[int] = []
        for vid, p in rows:
            public = max(list(media) + allocated + [0]) + 1
            allocated.append(public)
            media[public] = (p, p.rsplit("/", 1)[1])
        by_path = dict((p, public) for (vid, p), public in zip(rows, allocated))
        for p in keep:
            pub[p] = vol[p]
            items[A].append((p, by_path.get(p)))
        session.append((
            "commit_media", COMMIT, A, sorted(tmp),
            [EXT_TMP + p[len(EXTDIR):] for p in keep],
            [p for _vid, p in rows],
        ))
        visible = {p: digest(pub[p]) if p in pub else None for p in sorted(vol)}
        media_rows = [(k, media[k][0]) for k in sorted(media)]
        session.append(("check_visible", None, A, visible, [C]))
        session.append(("check_media", None, A, media_rows, [C]))
        rounds[A] += 1
        if rounds[A] % CLEAR_PRIV_EVERY == 0:
            session.append(("clear_priv", None, A))
        out.append(session)
    return Plan(
        apps=[PDF, SCANNER, CAMERA] + initiators + [C],
        setup=setup,
        sessions=out,
    )


def _committable(path: str) -> bool:
    """What an initiator keeps when it reviews Vol(A): the scanned pages
    and photos, never thumbnails, logs or sidecars."""
    return path.endswith(".jpg") and "/." not in path


PLANNERS = {
    "delegate_files": plan_files,
    "delegate_provider": plan_provider,
    "delegate_sessions": plan_sessions,
}
