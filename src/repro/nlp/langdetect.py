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

Documents are scored as arrays, a chunk of ``_CHUNK_DOCS`` at a time:
gram ids come from code points, and every float is made by the same
IEEE operations in the same order as a per-gram loop over each document.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.stats import first_occurrence_counts

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

_SOCIAL_TOKEN_RE = re.compile(r"(?:https?://\S+|[#@]\w+)")

#: A text whose best cosine score is below this is undetermined ('und').
MIN_CONFIDENCE = 0.05
#: Documents scored per pass of the array kernel.
_CHUNK_DOCS = 256
#: A letter's gram id is its code point (below ``1 << _POINT_BITS``); a
#: letter pair's is ``(first + 1) << _POINT_BITS | second``.
_POINT_BITS = 21
#: A (document, gram) key is ``document << _GRAM_BITS | gram``.
_GRAM_BITS = 2 * _POINT_BITS + 1


class _DropNonLetters(dict):
    """``str.translate`` table deleting every character that is not
    ``str.isalpha``; each code point is classified once, on first sight."""

    def __missing__(self, code: int) -> Optional[int]:
        kept = code if chr(code).isalpha() else None
        self[code] = kept
        return kept


def _gram_counts(letters: Sequence[str]) -> Tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
    """Each document's distinct grams and their counts, as ``(doc, gram,
    count)`` arrays: document by document, each in order of first
    occurrence (the order of a ``Counter`` over its grams).

    A document's grams are the three-character windows of its letters
    joined by single spaces and padded with one space each side:
    ``"ab c"`` gives ``" a "``, ``"a b"``, ``" b "``, ``"b c"``,
    ``" c "``, that is a letter and a pair of adjacent letters in turn.
    """
    lengths = np.fromiter(map(len, letters), dtype=np.int64,
                          count=len(letters))
    points = np.frombuffer("".join(letters).encode("utf-32-le"),
                           dtype="<u4").astype(np.int64)
    grams = np.empty(2 * len(points), dtype=np.int64)
    grams[0::2] = points
    grams[1:-1:2] = (points[:-1] + 1) << _POINT_BITS | points[1:]
    doc = np.repeat(np.arange(len(letters), dtype=np.int64), 2 * lengths)
    # A document's last letter starts no pair: drop the window that would
    # pair it with the next document's first letter.
    ends = np.cumsum(lengths)[lengths > 0]
    keep = np.ones(len(grams), dtype=bool)
    keep[2 * ends - 1] = False
    keys, counts = first_occurrence_counts(
        doc[keep] << _GRAM_BITS | grams[keep])
    return keys >> _GRAM_BITS, keys & ((1 << _GRAM_BITS) - 1), counts


def _unit_weights(doc: np.ndarray, counts: np.ndarray,
                  n_docs: int) -> np.ndarray:
    """Each count divided by its document's L2 norm: the ``sqrt`` of the
    integer sum of squared counts, which converts to float exactly."""
    squares = np.zeros(n_docs, dtype=np.int64)
    np.add.at(squares, doc, counts * counts)
    return counts / np.sqrt(squares.astype(np.float64))[doc]


class LanguageDetector:
    """Letter n-gram profile language classifier.

    >>> detector = LanguageDetector()
    >>> detector.detect("thank you all for watching the new video")
    'en'
    >>> detector.is_english("gracias por el apoyo nueva publicacion cada semana")
    False
    >>> detector.detect_all(["see you tomorrow", None, "bis morgen euch allen"])
    ['en', 'und', 'de']
    """

    def __init__(self) -> None:
        self._letters_only = _DropNonLetters()
        self._languages = sorted(_SEED_TEXT)
        doc, gram, counts = _gram_counts(
            [self._letters(_SEED_TEXT[lang]) for lang in self._languages])
        # Every profile gram's weight in each profile (0.0 where a profile
        # lacks it): one row per language, one column per gram in gram id
        # order.
        self._grams, columns = np.unique(gram, return_inverse=True)
        self._weights = np.zeros((len(self._languages), len(self._grams)))
        self._weights[doc, columns] = _unit_weights(doc, counts,
                                                    len(self._languages))

    @property
    def languages(self) -> List[str]:
        return list(self._languages)

    def _letters(self, text: Optional[str]) -> str:
        if not isinstance(text, str):
            # Degraded records may carry None; score as empty text.
            text = ""
        # Hashtags, mentions, and URLs carry no language signal and skew
        # the n-gram profile (a "#motivation #motivationdaily" soup reads
        # as Romance-language text); strip them first, like CLD2
        # pipelines do.
        return _SOCIAL_TOKEN_RE.sub(" ", text.lower()).translate(
            self._letters_only)

    def _score_letters(self, letters: Sequence[str]) -> np.ndarray:
        """Cosine scores of documents given by their letters: one row per
        document, one column per language of ``languages``."""
        doc, gram, counts = _gram_counts(letters)
        weights = _unit_weights(doc, counts, len(letters))
        columns = np.minimum(np.searchsorted(self._grams, gram),
                             len(self._grams) - 1)
        # A gram no profile has would add 0.0 to every score: skip it.
        known = self._grams[columns] == gram
        doc, weights, columns = doc[known], weights[known], columns[known]
        scores = np.zeros((len(self._languages), len(letters)))
        for language_scores, profile in zip(scores, self._weights):
            # ``np.add.at`` adds each document's products one at a time in
            # gram order, the order of a per-gram loop, so the scores are
            # equal to the last bit.
            np.add.at(language_scores, doc, weights * profile[columns])
        return scores.T

    def scores(self, text: Optional[str]) -> List[Tuple[str, float]]:
        """(language, cosine score) sorted best-first; a text without
        letters scores int 0 everywhere."""
        letters = self._letters(text)
        row = (self._score_letters([letters])[0].tolist() if letters
               else [0] * len(self._languages))
        results = list(zip(self._languages, row))
        results.sort(key=lambda pair: (-pair[1], pair[0]))
        return results

    def detect_all(self, texts: Sequence[Optional[str]]) -> List[str]:
        """Each text's best language, ties going to the alphabetically
        first, or 'und' (undetermined) when its score is below
        ``MIN_CONFIDENCE``; scored ``_CHUNK_DOCS`` texts at a time."""
        detected: List[str] = []
        for start in range(0, len(texts), _CHUNK_DOCS):
            scores = self._score_letters(
                [self._letters(text)
                 for text in texts[start : start + _CHUNK_DOCS]])
            best = scores.argmax(axis=1)  # the first of equal scores
            hopeless = scores[np.arange(len(best)), best] < MIN_CONFIDENCE
            detected.extend(
                "und" if no_match else self._languages[column]
                for column, no_match in zip(best.tolist(), hopeless.tolist()))
        return detected

    def detect(self, text: Optional[str]) -> str:
        """Best language, or 'und' (undetermined) for hopeless input."""
        return self.detect_all([text])[0]

    def is_english(self, text: Optional[str]) -> bool:
        return self.detect(text) == "en"


__all__ = ["LanguageDetector"]
