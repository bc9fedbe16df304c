"""Character n-gram language identification (the CLD2 role).

A tiny but effective classic: per-language letter n-gram profiles built
from bundled seed text, classification by cosine similarity of the
document's n-gram counts against each profile.  Distinguishing English
from the Romance/Germanic/Turkish text that appears in collected posts
is exactly what the paper needed CLD2 for.

The n-grams are three-character windows over the document's letters
joined by single spaces, so each is a letter unigram (``" x "``) or a
letter bigram (``"x y"``); digits, punctuation and word boundaries are
dropped.  True character trigrams would move every English share and
every table downstream of the filter, so the features stay as they are.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from operator import add, mul
from typing import Dict, List, Optional, Tuple

_SEED_TEXT: Dict[str, str] = {
    "en": (
        "thank you all for the support new video coming soon follow for more "
        "daily content check out our latest post the best tips and tricks for "
        "your account this week we are sharing more about the community and "
        "how to grow with real followers and likes what do you think about "
        "the new trend let us know in the comments below see you tomorrow "
        "with another update have a great day everyone keep watching and "
        "sharing with your friends the channel is growing every single day "
        "turn your deposit into guaranteed profit with our trading platform "
        "message us to start investing now limited slots on the investment "
        "plan claim your free reward before it sells out verify your login "
        "to keep your profile our support team is waiting order in the "
        "direct messages before the sale closes book the package today only "
        "today's inspiration keep pushing and stay consistent chase your "
        "goals with daily motivation and good vibes for the whole community "
        "subscribe and smash the like button to win the giveaway winners "
        "announced every week stay blessed and keep grinding your "
        "breakthrough is loading contact the certified help desk to remove "
        "the virus from your device send your wallet address to enter"
    ),
    "es": (
        "hola a todos gracias por el apoyo nueva publicacion cada semana "
        "siguenos para mas videos y fotos del equipo el mejor contenido en "
        "espanol comparte con tus amigos manana subimos mas novedades que "
        "piensas del nuevo video dejanos tu comentario abajo nos vemos pronto "
        "con mas contenido para toda la comunidad muchas gracias por estar"
    ),
    "de": (
        "vielen dank an alle follower bald kommen neue videos und mehr "
        "inhalte jede woche neue beitraege rund um mode und stil bleibt dran "
        "das beste aus der welt der technik jeden tag neue tipps was denkt "
        "ihr ueber das neue video schreibt es in die kommentare bis morgen "
        "mit einem weiteren update einen schoenen tag euch allen"
    ),
    "fr": (
        "merci a tous pour votre soutien de nouvelles videos arrivent "
        "bientot chaque semaine du nouveau contenu sur la mode et le style "
        "de vie le meilleur de l'humour francais abonnez vous pour ne rien "
        "rater qu'en pensez vous dites le nous en commentaire a demain pour "
        "une nouvelle publication bonne journee a toutes et a tous"
    ),
    "pt": (
        "obrigado a todos pelo apoio novos videos chegando em breve no canal "
        "toda semana conteudo novo sobre moda e estilo fiquem ligados o "
        "melhor conteudo em portugues compartilhe com os amigos o que voces "
        "acharam do novo video deixem nos comentarios ate amanha com mais "
        "novidades um otimo dia para todos voces"
    ),
    "it": (
        "grazie a tutti per il supporto presto nuovi contenuti sul canale "
        "ogni settimana nuovi video di cucina e ricette della tradizione il "
        "miglior contenuto italiano condividi con gli amici cosa ne pensate "
        "del nuovo video scrivetelo nei commenti a domani con un altro "
        "aggiornamento buona giornata a tutti voi"
    ),
    "tr": (
        "herkese destek icin tesekkurler yakinda yeni videolar geliyor her "
        "hafta yeni icerik takipte kalin ve arkadaslarinizla paylasin en "
        "iyi turkce icerik burada yeni video hakkinda ne dusunuyorsunuz "
        "yorumlarda yazin yarin yeni bir guncelleme ile gorusuruz herkese "
        "iyi gunler dilerim kanal her gun buyuyor"
    ),
}


import re

_SOCIAL_TOKEN_RE = re.compile(r"(?:https?://\S+|[#@]\w+)")


class _DropNonLetters(dict):
    """``str.translate`` table deleting every character that is not
    ``str.isalpha``; each code point is classified once, on first sight."""

    def __missing__(self, code: int) -> Optional[int]:
        kept = code if chr(code).isalpha() else None
        self[code] = kept
        return kept


def _letter_grams(text: str, letters_only: _DropNonLetters) -> Counter:
    """The document's n-gram counts, in first-occurrence order.

    The n-grams are the three-character windows of the letters joined by
    single spaces and padded with one space each side: ``"ab c"`` gives
    ``" a "``, ``"a b"``, ``" b "``, ``"b c"``, ``" c "``.  Each window is
    keyed by its letters alone (``"a"``, ``"ab"``, ``"b"``, ``"bc"``,
    ``"c"``), which names it just as well and is cheaper to build.
    """
    # Hashtags, mentions, and URLs carry no language signal and skew the
    # n-gram profile (a "#motivation #motivationdaily" soup reads as
    # Romance-language text); strip them first, like CLD2 pipelines do.
    letters = _SOCIAL_TOKEN_RE.sub(" ", text.lower()).translate(letters_only)
    grams = [""] * (2 * len(letters) - 1)  # empty when there are no letters
    grams[0::2] = letters
    grams[1::2] = map(add, letters, letters[1:])
    return Counter(grams)


def _normalize(counts: Counter) -> Dict[str, float]:
    norm = math.sqrt(sum(c * c for c in counts.values()))
    if norm == 0:
        return {}
    return {gram: c / norm for gram, c in counts.items()}


class LanguageDetector:
    """Letter n-gram profile language classifier.

    >>> detector = LanguageDetector()
    >>> detector.detect("thank you all for watching the new video")
    'en'
    >>> detector.is_english("gracias por el apoyo nueva publicacion cada semana")
    False
    """

    def __init__(self, min_confidence: float = 0.05) -> None:
        self._letters_only = _DropNonLetters()
        self._profiles: Dict[str, Dict[str, float]] = {
            lang: _normalize(_letter_grams(text, self._letters_only))
            for lang, text in _SEED_TEXT.items()
        }
        # Each gram's weight in every profile (0.0 where a profile lacks
        # it), so a document is scored one profile column at a time.
        self._no_weights = (0.0,) * len(self._profiles)
        self._weights: Dict[str, Tuple[float, ...]] = {
            gram: tuple(profile.get(gram, 0.0) for profile in self._profiles.values())
            for profile in self._profiles.values() for gram in profile
        }
        self.min_confidence = min_confidence

    @property
    def languages(self) -> List[str]:
        return sorted(self._profiles)

    def scores(self, text: str) -> List[Tuple[str, float]]:
        """(language, cosine score) sorted best-first."""
        if not isinstance(text, str):
            # Degraded records may carry None; score as empty text.
            text = ""
        counts = _letter_grams(text, self._letters_only)
        values = list(counts.values())
        norm = math.sqrt(sum(map(mul, values, values)))
        weights = [count / norm for count in values]
        rows = map(self._weights.get, counts, repeat(self._no_weights))
        columns = list(zip(*rows)) or [()] * len(self._profiles)
        # A builtin sum per profile of the same products in the same
        # (document) order as a per-gram loop, so the scores are equal to
        # the last bit; an empty document scores int 0 everywhere.
        results = [
            (lang, sum(map(mul, weights, column)))
            for lang, column in zip(self._profiles, columns)
        ]
        results.sort(key=lambda pair: (-pair[1], pair[0]))
        return results

    def detect(self, text: str) -> str:
        """Best language, or 'und' (undetermined) for hopeless input."""
        ranked = self.scores(text)
        if not ranked or ranked[0][1] < self.min_confidence:
            return "und"
        return ranked[0][0]

    def is_english(self, text: str) -> bool:
        return self.detect(text) == "en"


__all__ = ["LanguageDetector"]
