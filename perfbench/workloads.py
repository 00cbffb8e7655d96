"""Seeded inputs of the three workloads.

The fit workloads use ``polarpipe.synth`` text as it comes: lowercase
``fillerNN`` tokens plus ``topic<l>tok<j>`` signal tokens for every label that
is truly positive. ``score-social`` starts from the same generator and
decorates each text the way social posts look: code-switched English/Swahili
filler from a large vocabulary, mixed case, URLs, @mentions, #hashtags,
emoji from the bundled table (multi-codepoint sequences included) and emoji
with no table entry. While it builds a text it also derives the
normalization the text must get, piece by piece, so the benchmark can check
``corpus.preprocess`` against something it did not compute.

Every rate and share below is an assumption, not a measurement: no
statistics of the SemEval polarization data (label rates per subtask, or
the shares of URLs, mentions, hashtags and emoji in its English and Swahili
posts) were at hand to set them from. The README lists which metrics each
one drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SUBTASK2 = ("political", "racial/ethnic", "religious", "gender/sexual", "other")


@dataclass(frozen=True)
class FitSpec:
    schema: str
    n_docs: int
    rates: tuple[float, ...]
    noise: float
    labels: tuple[str, ...]
    flags: tuple[str, ...]


FIT = {
    "fit-multilabel": FitSpec(
        schema="subtask3",
        n_docs=2000,
        rates=(0.30, 0.20, 0.15, 0.10, 0.06, 0.04),
        noise=0.10,
        labels=(
            "stereotype",
            "vilification",
            "dehumanization",
            "extreme_language",
            "lack_of_empathy",
            "invalidation",
        ),
        # early stopping would make the epoch count, and so the work, depend
        # on the seed; with patience = max_epochs every seed trains 10 epochs
        flags=("--patience", "10"),
    ),
    "fit-binary-wide": FitSpec(
        schema="subtask1",
        n_docs=2500,
        rates=(0.25,),
        noise=0.10,
        labels=("polarized",),
        flags=("--hash-dim", "1048576", "--patience", "10"),
    ),
}

# score-social: corpus sizes, label rates and noise (assumed), and the model the set-up trains
SOCIAL_TRAIN_DOCS = 1200
SOCIAL_SCORE_DOCS = 1000
SOCIAL_RATES = (0.40, 0.30, 0.25, 0.20, 0.15)
SOCIAL_NOISE = 0.05
SOCIAL_TRAIN_FLAGS = ("--learning-rate", "2.0", "--patience", "10")

# decoration shares, per document (assumed; they set how much work normalization does)
P_URL = 0.45
P_MENTION = 0.55
P_HASHTAG = 0.50
P_SIGNAL_HASHTAG = 0.20
P_UNNAMED_EMOJI = 0.30
P_HIDDEN_TOKEN = 0.05  # "#@user" or "#https://...": live only after '#' is stripped
MEAN_EMOJI = 1.5
P_MULTI_CODEPOINT = 0.35
P_GLUED = 0.30
EXTRA_WORDS = (8, 20)
MAX_TOKENS = 128  # PreprocessConfig.max_tokens

_ENGLISH = """
people country vote election leader party power money truth news church mosque
faith god women men girls boys family children school work job market price
tax road city village land water food police court law rights freedom justice
government president minister member campaign rally crowd youth elders friend
enemy neighbor stranger tribe nation border history future today tomorrow
night morning story lie rumor video photo post share comment reply follow
like hate love fear anger hope shame respect trust blame speak listen talk
shout fight protest march support oppose believe deny accept reject build
break help hurt win lose pay steal send bring take give keep leave stay
""".split()

_EN_SUFFIXES = ("", "s", "ed", "ing", "er", "ly")

_SW_VERBS = """
penda soma enda sema jua ona pata fanya taka la lala cheza imba andika leta
piga sikia fika rudi ingia toka kaa simama saidia jenga pigania chagua ongea
lipa uza nunua tembea kimbia shinda pinga kubali kataa tetea lalamika amini
omba shukuru heshimu chukia fundisha jifunza vunja linda ongoza tawala
""".split()

_SW_SUBJECT = ("ni", "u", "a", "tu", "m", "wa")
_SW_TENSE = ("na", "li", "ta", "me", "ki")
_SW_OBJECT = ("", "ni", "ku", "m", "tu", "wa")

_SW_NOUNS = """
tu toto zee kristo islamu kulima shamba siasa kabila dini haki nchi mji
jiji soko kazi pesa chakula maji habari uongo ukweli chuki upendo amani vita
serikali rais waziri bunge mbunge chama kura uchaguzi kanisa msikiti imani
mwanamke mwanaume vijana wazee rafiki adui jirani mgeni taifa mpaka historia
""".split()

_SW_NOUN_PREFIX = ("", "m", "wa", "ki", "vi", "ma", "u")

_URL_HOSTS = ("t.co", "bit.ly", "nation.africa", "standardmedia.co.ke", "youtu.be", "example.org")


def vocabulary() -> tuple[str, ...]:
    """The fixed code-switched filler vocabulary, in a fixed order."""
    words = {w + s for w in _ENGLISH for s in _EN_SUFFIXES}
    words.update(
        s + t + o + v for s in _SW_SUBJECT for t in _SW_TENSE for o in _SW_OBJECT for v in _SW_VERBS
    )
    words.update(p + n for p in _SW_NOUN_PREFIX for n in _SW_NOUNS)
    return tuple(sorted(w for w in words if len(w) > 1))


def parse_emoji_table(path: Path) -> dict[str, str]:
    """Sequence -> name, read from the table file on its own terms."""
    table = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        seq, name = line.split("\t")
        table["".join(chr(int(cp[2:], 16)) for cp in seq.split())] = " ".join(name.lower().split())
    return table


def unnamed_emoji(table: dict[str, str]) -> tuple[str, ...]:
    """Pictographs with no table entry that start no table sequence."""
    starts = {key[0] for key in table}
    picks = [chr(cp) for cp in range(0x1F980, 0x1FA00) if chr(cp) not in starts]
    picks += [chr(cp) for cp in range(0x1F680, 0x1F6C0) if chr(cp) not in starts]
    return tuple(picks)


def _case(rng: np.random.RandomState, word: str) -> str:
    r = rng.random_sample()
    if r < 0.15:
        return word.upper()
    if r < 0.45:
        return word.capitalize()
    return word


class SocialDecorator:
    """Turns clean synth texts into social posts plus their expected normalization."""

    def __init__(self, table: dict[str, str], seed: int):
        self.rng = np.random.RandomState(seed)
        self.table = table
        self.single = tuple(sorted(k for k in table if len(k) == 1))
        self.multi = tuple(sorted(k for k in table if len(k) > 1))
        self.unnamed = unnamed_emoji(table)
        # Zipf frequencies over the vocabulary in a fixed shuffled order
        vocab = vocabulary()
        self.vocab = tuple(vocab[j] for j in np.random.RandomState(0).permutation(len(vocab)))
        weights = 1.0 / np.arange(1, len(vocab) + 1, dtype=np.float64)
        self.cdf = np.cumsum(weights) / np.sum(weights)
        self.max_key = max(len(k) for k in table)

    def word(self) -> str:
        j = int(np.searchsorted(self.cdf, self.rng.random_sample(), side="right"))
        return self.vocab[min(j, len(self.vocab) - 1)]

    def emoji(self) -> str:
        pool = self.multi if self.rng.random_sample() < P_MULTI_CODEPOINT else self.single
        return pool[self.rng.randint(len(pool))]

    def _glued_run(self) -> tuple[str, list[str]]:
        # a run of emoji with no space between them; each must still resolve
        # to itself under longest-match, so redraw any pair that would merge
        while True:
            keys = [self.emoji() for _ in range(self.rng.randint(2, 4))]
            raw = "".join(keys)
            pos, ok = 0, True
            for key in keys:
                longest = max(
                    (k for k in range(1, self.max_key + 1) if raw[pos : pos + k] in self.table),
                    default=0,
                )
                ok &= longest == len(key)
                pos += len(key)
            if ok:
                return raw, [t for key in keys for t in self.table[key].split()]

    def decorate(self, clean: str) -> tuple[str, str]:
        """(raw post, expected normalized text) for one clean synth text."""
        rng = self.rng
        pieces: list[tuple[str, list[str]]] = []
        for token in clean.split():
            if token.startswith("filler"):
                token = self.word()
            raw = _case(rng, token)
            if token.startswith("topic") and rng.random_sample() < P_SIGNAL_HASHTAG:
                raw = "#" + raw
            pieces.append((raw, [token]))
        for _ in range(rng.randint(*EXTRA_WORDS)):
            token = self.word()
            pieces.append((_case(rng, token), [token]))
        if rng.random_sample() < P_HASHTAG:
            for _ in range(rng.randint(1, 3)):
                token = self.word()
                pieces.append(("#" * rng.randint(1, 3) + _case(rng, token), [token]))
        if rng.random_sample() < P_URL:
            for _ in range(rng.randint(1, 3)):
                host = _URL_HOSTS[rng.randint(len(_URL_HOSTS))]
                path = "".join(chr(ord("a") + j) for j in rng.randint(0, 26, size=6))
                url = ("https://", "http://", "www.")[rng.randint(3)] + f"{host}/{_case(rng, path)}"
                if rng.random_sample() < 0.2:
                    url += "#section"
                pieces.append((url.upper() if rng.random_sample() < 0.1 else url, []))
        if rng.random_sample() < P_MENTION:
            for _ in range(rng.randint(1, 4)):
                pieces.append(("@" + _case(rng, self.word()) + str(rng.randint(100)), []))
        if rng.random_sample() < P_HIDDEN_TOKEN:
            hidden = ("#@" + self.word(), "#https://t.co/" + self.word())[rng.randint(2)]
            pieces.append((hidden, []))
        for _ in range(min(rng.poisson(MEAN_EMOJI), 5)):
            r = rng.random_sample()
            if r < P_GLUED:
                token = self.word()
                key = self.emoji()
                pieces.append((_case(rng, token) + key, [token] + self.table[key].split()))
            elif r < P_GLUED + 0.15:
                pieces.append(self._glued_run())
            else:
                key = self.emoji()
                pieces.append((key, self.table[key].split()))
        if rng.random_sample() < P_UNNAMED_EMOJI:
            glyph = self.unnamed[rng.randint(len(self.unnamed))]
            if rng.random_sample() < 0.5:
                token = self.word()
                pieces.append((_case(rng, token) + glyph, [token]))
            else:
                pieces.append((glyph, []))
        order = rng.permutation(len(pieces))
        separators = (" ",) * 12 + ("  ", "\n", "\t ")
        raw_parts, expected = [], []
        for j in order:
            raw_parts.append(pieces[j][0])
            raw_parts.append(separators[rng.randint(len(separators))])
            expected.extend(pieces[j][1])
        return "".join(raw_parts).strip(), " ".join(expected[:MAX_TOKENS])


def social_corpus(n_docs: int, synth_seed: int, decorate_seed: int, table: dict[str, str]):
    """(Dataset of decorated subtask2 posts, expected normalization by id)."""
    from polarpipe.corpus import Dataset, Instance, LabelSchema
    from polarpipe.synth import generate_synthetic

    clean = generate_synthetic(
        n_docs, SOCIAL_RATES, noise=SOCIAL_NOISE, seed=synth_seed, label_names=SUBTASK2
    )
    decorator = SocialDecorator(table, decorate_seed)
    instances, expected = [], {}
    for inst in clean.instances:
        raw, normalized = decorator.decorate(inst.text)
        instances.append(Instance(id=inst.id, raw_text=raw, text=normalized, labels=inst.labels))
        expected[inst.id] = normalized
    return Dataset(schema=LabelSchema(names=SUBTASK2), instances=tuple(instances)), expected
