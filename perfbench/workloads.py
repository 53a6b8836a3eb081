"""Seeded inputs for the fenstring benchmark, with their expected results.

Everything here is set-up: it runs before timing starts and its cost is the
benchmark's ``setup_s``. Positions come from a small mailbox game simulator
that picks plausible moves: pieces move along their own lines, captures are
rarer than quiet moves and kings are never captured, so boards stay dense as
in real games. The simulator only chooses moves. Every expected result is
computed by the package under test: the string path's by the array oracle,
and the oracle's by the string path.

The package is passed around as a module object ``fs`` so that each set-up
can import it afresh (see ``import_package``).
"""

from __future__ import annotations

import importlib
import random
import statistics
import sys
from dataclasses import dataclass, field

WORKLOADS = ("replay", "point", "fuzz", "reject")

START_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"

OPTION_COMBOS = tuple(
    (ep_mode, clock_mode, validation)
    for ep_mode in ("always", "adjacent-only")
    for clock_mode in ("standard", "frozen")
    for validation in ("lenient", "strict")
)

SPECIAL_KINDS = ("castle-kingside", "castle-queenside", "en-passant-capture", "promotion")
MOVE_ERROR_CODES = ("EmptyOrigin", "WrongColor", "MissingPromotion", "BadCastle", "FriendlyCapture")
MOVE_SYNTAX_CODES = ("BadMoveSyntax", "BadPromotionPiece")
FEN_SYNTAX_CODES = (
    "SegmentCount", "RankWidth", "BadPieceLetter", "AdjacentDigits",
    "BadSideChar", "BadCastlingField", "BadEnPassantField", "BadClock",
)
# every error apply_move can raise on a string move; reject covers the first
# eleven (one malformed field per input), point the move errors
REJECT_CODES = FEN_SYNTAX_CODES + MOVE_SYNTAX_CODES + ("Validation",)
ERROR_CODES = REJECT_CODES + MOVE_ERROR_CODES

# stated shares of the point request list; the rest are ordinary moves
POINT_SHARES = {kind: 0.05 for kind in SPECIAL_KINDS}
POINT_SHARES.update({code: 0.04 for code in MOVE_ERROR_CODES})

# sizes at scale 1.0, chosen so that one set-up takes about a second on a
# 2-core x86 machine while the timed loops still see thousands of distinct inputs
REPLAY_GAMES = 50
REPLAY_PLIES = (60, 160)  # game lengths are spread evenly over this range
POINT_REQUESTS = 5000
REJECT_REQUESTS = 4400
# fuzz runs differential_fuzz as the acceptance test (test_06) does: one chain
# of 25000 pairs for each lenient ep_mode x clock_mode combination, seeds
# 1000 + i at seed 0. A chain restarts from the start position about every
# 220 pairs, so its first thousand pairs are as sparse as the whole of it.
FUZZ_CHAIN_PAIRS = 25000
FUZZ_WINDOW = 1000  # pairs at the head of each chain that set-up lists
FUZZ_CANARY_PAIRS = 250  # of each window, for the fuzz driver's check (timing.check_fuzz_driver)
CLI_GAME_PLIES = 1000
SAMPLE_REQUESTS = 1000  # well-formed requests timed stage by stage when tracing
SIDE_FUZZ_CALLS = 8  # fuzzing-layer sample on workloads other than fuzz
SIDE_FUZZ_PAIRS = 50

FILES = "abcdefgh"
KNIGHT_STEPS = ((-2, -1), (-2, 1), (-1, -2), (-1, 2), (1, -2), (1, 2), (2, -1), (2, 1))
KING_STEPS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
DIAGONALS = ((-1, -1), (-1, 1), (1, -1), (1, 1))
LINES = ((-1, 0), (1, 0), (0, -1), (0, 1))
SLIDES = {"B": DIAGONALS, "R": LINES, "Q": DIAGONALS + LINES}
_CORNER_RIGHTS = {63: {"K"}, 56: {"Q"}, 7: {"k"}, 0: {"q"}}  # corner cell -> right it hosts


def import_package():
    """Import fenstring afresh, so each set-up pays the package's import cost."""
    for name in [m for m in sys.modules if m == "fenstring" or m.startswith("fenstring.")]:
        del sys.modules[name]
    return importlib.import_module("fenstring")


def name_of(i: int) -> str:
    """Mailbox index (0 = a8, 63 = h1) to square name."""
    return FILES[i % 8] + str(8 - i // 8)


def index_of(square: str) -> int:
    return (8 - int(square[1])) * 8 + FILES.index(square[0])


class Position:
    """Mailbox game state of the simulator; '.' marks an empty cell."""

    __slots__ = ("board", "side", "castling", "ep", "halfmove", "fullmove")

    @classmethod
    def from_fen(cls, fen: str) -> "Position":
        placement, side, castling, ep, halfmove, fullmove = fen.split()
        p = cls()
        p.board = [c for ch in placement if ch != "/"
                   for c in ("." * int(ch) if ch.isdigit() else ch)]
        p.side = side
        p.castling = "" if castling == "-" else castling
        p.ep = None if ep == "-" else index_of(ep)
        p.halfmove, p.fullmove = int(halfmove), int(fullmove)
        return p

    def copy(self) -> "Position":
        p = Position()
        p.board = list(self.board)
        p.side, p.castling, p.ep = self.side, self.castling, self.ep
        p.halfmove, p.fullmove = self.halfmove, self.fullmove
        return p

    def fen(self) -> str:
        b = "".join(self.board)
        rows = "/".join(b[r:r + 8] for r in range(0, 64, 8))
        for n in range(8, 0, -1):
            rows = rows.replace("." * n, str(n))
        castling = "".join(c for c in "KQkq" if c in self.castling) or "-"
        ep = name_of(self.ep) if self.ep is not None else "-"
        return f"{rows} {self.side} {castling} {ep} {self.halfmove} {self.fullmove}"

    def pieces(self) -> int:
        return 64 - self.board.count(".")

    def moves(self):
        """Pseudo-moves of the side to move as (kind, from, to). Kings are never
        captured; checks are ignored, as the package ignores them."""
        b = self.board
        white = self.side == "w"
        own = str.isupper if white else str.islower
        out = []

        def target(kind_if_empty, f, t):
            q = b[t]
            if q == ".":
                out.append((kind_if_empty, f, t))
                return True
            if not own(q) and q not in "Kk":
                out.append(("capture", f, t))
            return False

        for i, p in enumerate(b):
            if p == "." or not own(p):
                continue
            r, c = divmod(i, 8)
            kind = p.upper()
            if kind == "P":
                dr = -1 if white else 1
                r1 = r + dr
                if not 0 <= r1 <= 7:
                    continue
                promoting = r1 == (0 if white else 7)
                t = r1 * 8 + c
                if b[t] == ".":
                    out.append(("promotion" if promoting else "quiet", i, t))
                    if r == (6 if white else 1) and b[t + 8 * dr] == ".":
                        out.append(("quiet", i, t + 8 * dr))
                for dc in (-1, 1):
                    if 0 <= c + dc <= 7:
                        t = r1 * 8 + c + dc
                        q = b[t]
                        if q != "." and not own(q) and q not in "Kk":
                            out.append(("promotion" if promoting else "capture", i, t))
                        elif t == self.ep:
                            out.append(("en-passant-capture", i, t))
            elif kind in "NK":
                for dr, dc in KNIGHT_STEPS if kind == "N" else KING_STEPS:
                    if 0 <= r + dr <= 7 and 0 <= c + dc <= 7:
                        target("quiet", i, (r + dr) * 8 + c + dc)
            else:
                for dr, dc in SLIDES[kind]:
                    rr, cc = r + dr, c + dc
                    while 0 <= rr <= 7 and 0 <= cc <= 7 and target("quiet", i, rr * 8 + cc):
                        rr, cc = rr + dr, cc + dc
        king = "K" if white else "k"
        rook = "R" if white else "r"
        home = 60 if white else 4
        if b[home] == king:
            right_k, right_q = ("K", "Q") if white else ("k", "q")
            if right_k in self.castling and b[home + 3] == rook and b[home + 1] == b[home + 2] == ".":
                out.append(("castle-kingside", home, home + 2))
            if (right_q in self.castling and b[home - 4] == rook
                    and b[home - 1] == b[home - 2] == b[home - 3] == "."):
                out.append(("castle-queenside", home, home - 2))
        return out

    def push(self, kind: str, f: int, t: int, promotion: str = "") -> None:
        b = self.board
        white = self.side == "w"
        piece, captured = b[f], b[t]
        b[f] = "."
        b[t] = (promotion.upper() if white else promotion.lower()) if promotion else piece
        if kind == "castle-kingside":
            b[f + 1], b[f + 3] = b[f + 3], "."
        elif kind == "castle-queenside":
            b[f - 1], b[f - 4] = b[f - 4], "."
        elif kind == "en-passant-capture":
            b[(f // 8) * 8 + t % 8] = "."
            captured = "p"
        lost = set()
        if piece in "Kk":
            lost |= set("KQ" if white else "kq")
        for square in (f, t):
            lost |= _CORNER_RIGHTS.get(square, set())
        self.castling = "".join(c for c in self.castling if c not in lost)
        self.ep = (f + t) // 2 if piece in "Pp" and abs(f - t) == 16 else None
        self.halfmove = 0 if piece in "Pp" or captured != "." else self.halfmove + 1
        if not white:
            self.fullmove += 1
        self.side = "b" if white else "w"


def move_text(f: int, t: int, promotion: str = "") -> str:
    return name_of(f) + name_of(t) + promotion


def pick_move(rng: random.Random, pos: Position):
    """Weighted choice: special moves are favoured so they occur in every game,
    captures are rarer than quiet moves, and rarer still on thin boards."""
    moves = pos.moves()
    if not moves:
        return None
    capture = 1.0 if pos.pieces() >= 20 else 0.2
    weights = [capture if kind == "capture" else 1.0 if kind == "quiet" else 6.0
               for kind, _, _ in moves]
    kind, f, t = rng.choices(moves, weights)[0]
    return kind, f, t, rng.choice("qqqrbn") if kind == "promotion" else ""


def simulate(rng: random.Random, plies: int, positions=None):
    """The move texts of a game of up to ``plies`` plies from the start
    position; the position before each ply is appended to ``positions``."""
    pos = Position.from_fen(START_FEN)
    moves = []
    for _ in range(plies):
        move = pick_move(rng, pos)
        if move is None:
            break
        if positions is not None:
            positions.append(pos.copy())
        moves.append(move_text(*move[1:]))
        pos.push(*move)
    return moves


# --- expected results --------------------------------------------------------

def error_text(exc: Exception) -> str:
    """How an error is compared: "<Code>" for the package's typed errors, the
    exception type for anything else (which no expected result contains)."""
    return f"<{getattr(exc, 'code', type(exc).__name__)}>"


def outcome(fn, fen, move, options, errors) -> str:
    """Result of one call as text: the FEN, or "<Code>" for a typed error."""
    try:
        result = fn(fen, move, options)
    except errors as exc:
        return error_text(exc)
    return getattr(result, "fen_after", result)


def request(fs, fen, move, options):
    """(fen, move, options, expected apply_move result, expected oracle_apply
    result): each path's expectation comes from the other path."""
    return (fen, move, options,
            outcome(fs.oracle_apply, fen, move, options, fs.FenstringError),
            outcome(fs.apply_move, fen, move, options, fs.FenstringError))


def chain(fs, start, moves, options):
    """Requests along one game, each ply starting from the oracle's result."""
    out, fen = [], start
    for move in moves:
        req = request(fs, fen, move, options)
        if req[3].startswith("<"):
            raise RuntimeError(f"the oracle rejects simulated move {move} on {fen}: {req[3]}")
        out.append(req)
        fen = req[3]
    return out


# --- point: special-move and move-error requests -----------------------------

def _own_squares(pos, own=True):
    upper = pos.side == "w"
    return [i for i, v in enumerate(pos.board) if v != "." and v.isupper() == (upper == own)]


def _normal(rng, pos):
    moves = [m for m in pos.moves() if m[0] in ("quiet", "capture")]
    if not moves:
        return None
    _, f, t = rng.choice(moves)
    return pos.fen(), move_text(f, t)


def _castle(rng, pos, wing, rook_in_corner=True):
    q = pos.copy()
    b = q.board
    white = q.side == "w"
    row = 7 if white else 0
    king, rook = ("K", "R") if white else ("k", "r")
    home, corner = row * 8 + 4, row * 8 + (7 if wing == "K" else 0)
    between = (home + 1, home + 2) if wing == "K" else (home - 1, home - 2, home - 3)
    if any(b[s] == king.swapcase() for s in (home, corner) + between):
        return None
    b[b.index(king)] = "."
    b[home] = king
    for s in between:
        b[s] = "."
    if rook_in_corner:
        b[corner] = rook
        right = wing if white else wing.lower()
        q.castling += right if right not in q.castling else ""
    else:
        b[corner] = rng.choice(".NBr" if white else ".nbR")
    return q.fen(), move_text(home, home + 2 if wing == "K" else home - 2)


def _en_passant(rng, pos):
    q = pos.copy()
    b = q.board
    white = q.side == "w"
    c = rng.randrange(8)
    dc = rng.choice((-1, 1)) if 0 < c < 7 else (1 if c == 0 else -1)
    row, step = (3, -1) if white else (4, 1)  # the two pawns' row; capture direction
    cells = {row * 8 + c: "p" if white else "P", row * 8 + c + dc: "P" if white else "p",
             (row + step) * 8 + c: ".", (row + 2 * step) * 8 + c: "."}
    if any(b[s] in "Kk" for s in cells):
        return None
    for s, v in cells.items():
        b[s] = v
    q.ep = (row + step) * 8 + c
    return q.fen(), move_text(row * 8 + c + dc, q.ep)


def _promotion(rng, pos, suffix=True):
    q = pos.copy()
    b = q.board
    white = q.side == "w"
    c = rng.randrange(8)
    dc = rng.choice((0, 0, -1, 1))
    dc = dc if 0 <= c + dc <= 7 else 0
    src, dst = (8 + c, c + dc) if white else (48 + c, 56 + c + dc)
    if b[src] in "Kk" or b[dst] in "Kk":
        return None
    b[src] = "P" if white else "p"
    b[dst] = "." if dc == 0 else rng.choice("qrbn" if white else "QRBN")
    return q.fen(), move_text(src, dst, rng.choice("qrbnQRBN") if suffix else "")


def _empty_origin(rng, pos):
    f = rng.choice([i for i, v in enumerate(pos.board) if v == "."])
    t = rng.choice([i for i in range(64) if i != f])
    return pos.fen(), move_text(f, t)


def _wrong_color(rng, pos):
    f = rng.choice(_own_squares(pos, own=False))
    t = rng.choice([i for i in range(64) if i != f])
    return pos.fen(), move_text(f, t)


def _friendly_capture(rng, pos):
    f, t = rng.sample(_own_squares(pos), 2)
    return pos.fen(), move_text(f, t)


POINT_MAKERS = {
    "move": _normal,
    "castle-kingside": lambda rng, pos: _castle(rng, pos, "K"),
    "castle-queenside": lambda rng, pos: _castle(rng, pos, "Q"),
    "en-passant-capture": _en_passant,
    "promotion": _promotion,
    "EmptyOrigin": _empty_origin,
    "WrongColor": _wrong_color,
    "MissingPromotion": lambda rng, pos: _promotion(rng, pos, suffix=False),
    "BadCastle": lambda rng, pos: _castle(rng, pos, rng.choice("KQ"), rook_in_corner=False),
    "FriendlyCapture": _friendly_capture,
}


def position_pool(rng, games, plies=120):
    """Positions from several simulated games, every ply of each."""
    pool = []
    for _ in range(games):
        simulate(rng, plies, pool)
    return pool


def quotas(shares, total):
    """Whole counts per kind, at least one each; 'move' takes the remainder."""
    counts = {kind: max(1, round(share * total)) for kind, share in shares.items()}
    counts["move"] = max(1, total - sum(counts.values()))
    return counts


def draw_distinct(rng, pool, maker, count, seen):
    """Yield ``count`` (fen, move) pairs from ``maker`` that are not in ``seen``."""
    while count:
        made = maker(rng, rng.choice(pool))
        if made is not None and made not in seen:
            seen.add(made)
            count -= 1
            yield made


# --- reject: one malformed field per input ------------------------------------

def _mutate_fen(rng, fen, code):
    fields = fen.split()
    placement = fields[0]
    if code == "SegmentCount":
        how = rng.randrange(3)
        if how == 0:
            return " ".join(fields[:5])
        if how == 1:
            return fen + " -"
        cut = rng.choice([i for i, ch in enumerate(placement) if ch == "/"])
        fields[0] = placement[:cut] + placement[cut + 1:]
    elif code == "RankWidth":
        segs = placement.split("/")
        i = rng.randrange(8)
        s = segs[i]
        segs[i] = s[:-1] + str(int(s[-1]) + 1) if s[-1].isdigit() else s + "1"
        fields[0] = "/".join(segs)
    elif code == "BadPieceLetter":
        i = rng.choice([i for i, ch in enumerate(placement) if ch.isalpha()])
        fields[0] = placement[:i] + rng.choice("xXzZ0") + placement[i + 1:]
    elif code == "AdjacentDigits":
        spots = [i for i, ch in enumerate(placement) if ch in "2345678"]
        if not spots:
            return None
        i = rng.choice(spots)
        fields[0] = placement[:i] + "1" + str(int(placement[i]) - 1) + placement[i + 1:]
    elif code == "BadSideChar":
        fields[1] = rng.choice(("W", "B", "x", "white"))
    elif code == "BadCastlingField":
        field_ = fields[2]
        fields[2] = rng.choice(("x", "--", "KK")) if field_ == "-" else field_ + rng.choice((field_[0], "x"))
    elif code == "BadEnPassantField":
        fields[3] = rng.choice(("e4", "d5", "z6", "e", "a9"))
    elif code == "BadClock":
        which = rng.randrange(2)
        fields[4 + which] = rng.choice(("-1", "x", "1.5") if which == 0 else ("0", "-3"))
    elif code == "Validation":
        pos = Position.from_fen(fen)
        b = pos.board
        kings = [i for i, v in enumerate(b) if v in "Kk"]
        others = [i for i, v in enumerate(b) if v not in ".Kk"]
        how = rng.randrange(4)
        if how == 0:  # a side without its king
            if not kings:
                return None
            b[rng.choice(kings)] = "."
        elif how == 1:  # a second king
            if not others:
                return None
            b[rng.choice(others)] = rng.choice("Kk")
        elif how == 2:  # a pawn on the first or last rank
            edges = [i for i in (*range(8), *range(56, 64)) if b[i] not in "Kk"]
            b[rng.choice(edges)] = rng.choice("Pp")
        else:  # an en-passant square on the mover's own side
            pos.ep = (5 if pos.side == "w" else 2) * 8 + rng.randrange(8)
        return pos.fen()
    return " ".join(fields)


def _mutate_move(rng, move, code):
    if code == "BadPromotionPiece":
        return move + rng.choice("qrbnQRBN")
    return rng.choice((move[:3], move + "x", move[:2] + move[:2], move[:3] + "9", move.upper()))


def mutate(rng, fen, move, code):
    """(fen, move) with exactly the defect named by ``code``, or None."""
    if code in MOVE_SYNTAX_CODES:
        return fen, _mutate_move(rng, move, code)
    bad = _mutate_fen(rng, fen, code)
    return None if bad is None else (bad, move)


# --- workloads ---------------------------------------------------------------

@dataclass
class Workload:
    name: str
    primary: list  # what the timed loop hands the package, one call each
    requests: list  # (fen, move, options, expected apply_move, expected oracle_apply)
    sample: list  # well-formed requests timed stage by stage when tracing
    sample_sequences: list  # (start, moves, options, expected FENs) covering the sample
    bad_fens: list  # (malformed FEN, validation) for the parser's error path
    fuzz_calls: list  # (iterations, seed, options) for the fuzzing layer when tracing
    game: tuple  # (start, moves, expected FENs) for the CLI `play` run
    intended: dict = field(default_factory=dict)  # generator's count of each kind it made
    # (iterations, seed, options, [(fen, move, expected apply_move)]) for
    # timing.check_fuzz_driver: the pairs differential_fuzz must walk
    canaries: list = field(default_factory=list)


def _options(fs, combo):
    ep_mode, clock_mode, validation = combo
    return fs.ApplyOptions(ep_mode=ep_mode, clock_mode=clock_mode, validation=validation)


def _fuzz_options(fs, i):
    """The i-th lenient ep_mode x clock_mode combination, in test_06's order."""
    return _options(fs, OPTION_COMBOS[2 * (i % 4)])


def _size(base, scale):
    return max(1, round(base * scale))


def _cli_game(fs, seed, scale):
    moves = simulate(random.Random(f"cli:{seed}"), _size(CLI_GAME_PLIES, scale))
    requests = chain(fs, START_FEN, moves, fs.ApplyOptions())
    return START_FEN, moves, [r[3] for r in requests]


def _side_fuzz_calls(fs, rng, scale):
    return [(_size(SIDE_FUZZ_PAIRS, scale), rng.randrange(2**32), _fuzz_options(fs, i))
            for i in range(SIDE_FUZZ_CALLS)]


def _bad_fens(rng, sample, count):
    out = []
    codes = FEN_SYNTAX_CODES + ("Validation",)
    for i, (fen, move, *_rest) in enumerate(sample[:count]):
        code = codes[i % len(codes)]
        bad = _mutate_fen(rng, fen, code)
        if bad is not None:
            out.append((bad, "strict" if code == "Validation" else "lenient"))
    return out


def _one_ply(sample):
    return [(fen, [move], options, [exp]) for fen, move, options, exp, _ in sample]


def build_replay(fs, seed, scale):
    rng = random.Random(f"replay:{seed}")
    n = _size(REPLAY_GAMES, scale)
    lo, hi = REPLAY_PLIES
    lengths = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(lengths)
    options = fs.ApplyOptions()
    games, requests = [], []
    for plies in lengths:
        moves = simulate(rng, plies)
        reqs = chain(fs, START_FEN, moves, options)
        games.append((START_FEN, moves, options, [r[3] for r in reqs]))
        requests.extend(reqs)
    sample, sequences, plies = [], [], 0
    target = _size(SAMPLE_REQUESTS, scale)
    for game in games:
        if plies >= target:
            break
        sequences.append(game)
        sample.extend(requests[plies:plies + len(game[1])])
        plies += len(game[1])
    return dict(primary=games, requests=requests, sample=sample, sample_sequences=sequences,
                bad_fens=_bad_fens(rng, sample, _size(600, scale)),
                fuzz_calls=_side_fuzz_calls(fs, rng, scale))


def build_point(fs, seed, scale):
    rng = random.Random(f"point:{seed}")
    pool = position_pool(rng, _size(12, scale))
    counts = quotas(POINT_SHARES, _size(POINT_REQUESTS, scale))
    strict = [c for c in OPTION_COMBOS if c[2] == "strict"]
    seen, requests = set(), []
    for kind, count in counts.items():
        combos = strict if kind == "FriendlyCapture" else OPTION_COMBOS
        for i, (fen, move) in enumerate(draw_distinct(rng, pool, POINT_MAKERS[kind], count, seen)):
            requests.append(request(fs, fen, move, _options(fs, combos[i % len(combos)])))
    rng.shuffle(requests)
    sample = [r for r in requests if not r[3].startswith("<")][:_size(SAMPLE_REQUESTS, scale)]
    return dict(primary=requests, requests=requests, sample=sample,
                sample_sequences=_one_ply(sample),
                bad_fens=_bad_fens(rng, sample, _size(600, scale)),
                fuzz_calls=_side_fuzz_calls(fs, rng, scale), intended=counts)


def build_reject(fs, seed, scale):
    rng = random.Random(f"reject:{seed}")
    pool = position_pool(rng, _size(8, scale))
    per_code = max(1, _size(REJECT_REQUESTS, scale) // len(REJECT_CODES))
    strict = [c for c in OPTION_COMBOS if c[2] == "strict"]
    seen, sources, requests = set(), [], []
    for code in REJECT_CODES:
        combos = strict if code == "Validation" else OPTION_COMBOS
        made = 0
        while made < per_code:
            source = _normal(rng, rng.choice(pool))
            if source is None:
                continue
            bad = mutate(rng, *source, code)
            if bad is None or bad in seen:
                continue
            seen.add(bad)
            options = _options(fs, combos[made % len(combos)])
            requests.append(request(fs, *bad, options))
            sources.append((*source, options))
            made += 1
    order = list(range(len(requests)))
    rng.shuffle(order)
    requests = [requests[i] for i in order]
    sample = [request(fs, *sources[i]) for i in order[:_size(SAMPLE_REQUESTS, scale)]]
    bad_fens = [(r[0], r[2].validation) for r in requests
                if r[3][1:-1] not in MOVE_SYNTAX_CODES][:_size(600, scale)]
    return dict(primary=requests, requests=requests, sample=sample,
                sample_sequences=_one_ply(sample), bad_fens=bad_fens,
                fuzz_calls=_side_fuzz_calls(fs, rng, scale),
                intended={code: per_code for code in REJECT_CODES})


def build_fuzz(fs, seed, scale):
    # differential_fuzz checks its own pairs: a call is correct when its report
    # says every pair was compared and none mismatched. The head of each chain
    # is listed with expected results, for the array path, the layers, the
    # description counts and the check that the driver really compares.
    calls = [(_size(FUZZ_CHAIN_PAIRS, scale), 1000 + 4 * seed + i, _fuzz_options(fs, i))
             for i in range(4)]
    window = min(_size(FUZZ_WINDOW, scale), calls[0][0])
    canary = min(_size(FUZZ_CANARY_PAIRS, scale), window)
    heads = [[request(fs, fen, move, options) for fen, move in fs.fuzz_pairs(window, s, options)]
             for _, s, options in calls]
    share = _size(SAMPLE_REQUESTS, scale) // 4 or 1
    return dict(primary=calls, requests=[r for head in heads for r in head],
                sample=[r for head in heads for r in head[:share]],
                sample_sequences=_one_ply([r for head in heads for r in head[:share]]),
                bad_fens=_bad_fens(random.Random(f"fuzz:{seed}"), heads[0], _size(600, scale)),
                fuzz_calls=[(window, s, options) for _, s, options in calls],
                canaries=[(canary, s, options, [r[:2] + (r[3],) for r in head[:canary]])
                          for (_, s, options), head in zip(calls, heads)])


BUILDERS = {"replay": build_replay, "point": build_point, "fuzz": build_fuzz,
            "reject": build_reject}


def build(fs, name: str, seed: int, scale: float = 1.0) -> Workload:
    """The named workload for ``seed``: its inputs and expected results."""
    return Workload(name=name, game=_cli_game(fs, seed, scale), **BUILDERS[name](fs, seed, scale))


def setup(name: str, seed: int, scale: float = 1.0):
    """All of a run's set-up: import the package afresh, then build the
    workload. Returns (package, workload)."""
    fs = import_package()
    return fs, build(fs, name, seed, scale)


# --- descriptors ---------------------------------------------------------------

def special_kind(fen: str, move: str):
    """Which special move ``move`` is on ``fen``, read off the board by the
    benchmark itself, or None."""
    pos = Position.from_fen(fen)
    f, t = index_of(move[:2]), index_of(move[2:4])
    piece = pos.board[f].upper()
    if piece == "K" and f // 8 == t // 8 and f // 8 in (0, 7) and abs(f - t) == 2 and t % 8 in (2, 6):
        return "castle-kingside" if t % 8 == 6 else "castle-queenside"
    if piece == "P" and t == pos.ep and abs(f % 8 - t % 8) == 1 and abs(f // 8 - t // 8) == 1:
        return "en-passant-capture"
    if piece == "P" and t // 8 in (0, 7):
        return "promotion"
    return None


def describe(w: Workload) -> dict:
    """Counts that pin down what a workload measures; equal for equal seeds."""
    specials = dict.fromkeys(SPECIAL_KINDS, 0)
    errors = dict.fromkeys(ERROR_CODES, 0)
    for fen, move, _options, expected, _ in w.requests:
        if expected.startswith("<"):
            code = expected[1:-1]
            if code in errors:
                errors[code] += 1
        else:
            kind = special_kind(fen, move)
            if kind:
                specials[kind] += 1
    out = {f"workload.special.{k}": v for k, v in specials.items()}
    out.update({f"workload.error.{k}": v for k, v in errors.items()})
    out["workload.pieces_median"] = statistics.median(
        sum(ch.isalpha() for ch in fen.split()[0]) for fen, *_ in w.requests)
    out["workload.distinct_request_share"] = len(
        {(fen, move, options) for fen, move, options, *_ in w.requests}) / len(w.requests)
    return out
