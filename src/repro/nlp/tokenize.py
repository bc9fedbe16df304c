"""Tokenization for the post-analysis pipeline.

:func:`tokenize` turns one text into tokens.  :class:`TokenStream` holds
a corpus's tokens for every consumer of the Section-6 pipeline: each
distinct text is tokenized once, and its tokens are kept as int32 ids
over one vocabulary, so per-token facts are worked out once per
vocabulary entry rather than once per occurrence.
"""

from __future__ import annotations

import re
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_URL_RE = re.compile(r"https?://\S+|\b[\w-]+\.(?:example|onion|com|net|io)\S*")
_HANDLE_RE = re.compile(r"[@#][\w.]+")
_TOKEN_RE = re.compile(r"[a-z][a-z']+")


def tokenize(text: str, keep_handles: bool = False) -> List[str]:
    """Lowercase word tokens; URLs stripped, digits dropped.

    ``keep_handles`` keeps @mentions / #hashtags as single tokens (useful
    as cluster signals); otherwise they are removed.

    >>> tokenize("Visit https://x.example NOW and DM @fastpayout!!")
    ['visit', 'now', 'and', 'dm']
    >>> tokenize("win #crypto", keep_handles=True)
    ['win', '#crypto']
    """
    if not isinstance(text, str):
        # A degraded record can carry None where text was nulled; the
        # token stream is simply empty.
        return []
    lowered = text.lower()
    lowered = _URL_RE.sub(" ", lowered)
    handles: List[str] = []
    if keep_handles:
        handles = _HANDLE_RE.findall(lowered)
    lowered = _HANDLE_RE.sub(" ", lowered)
    tokens = _TOKEN_RE.findall(lowered)
    return tokens + handles


def bigrams(tokens: List[str]) -> List[str]:
    """Adjacent-token bigrams joined with an underscore."""
    return [f"{a}_{b}" for a, b in zip(tokens, tokens[1:])]


class TokenStream:
    """Texts as rows of token ids, each distinct text tokenized once.

    A row's *tokens* are ``tokenize(text, keep_handles=True)``.  Its
    *words* are the tokens before the first handle, which is exactly
    ``tokenize(text)``: no word starts with ``@`` or ``#``, and every
    handle does.  Ids index :attr:`tokens`, in order of first appearance.

    A text is tokenized the first time :meth:`row` or :meth:`documents`
    is asked for it; the stream holds its ids, not the text's strings.
    """

    def __init__(self) -> None:
        #: Token strings by id.
        self.tokens: List[str] = []
        self._id_of: Dict[str, int] = {}
        self._row_of: Dict[Optional[str], int] = {}
        #: Row ``r``'s tokens are ``_ids[_starts[r]:_starts[r + 1]]`` and
        #: its words ``_ids[_starts[r]:_word_ends[r]]``.
        self._ids = array("i")
        self._starts = array("i", [0])
        self._word_ends = array("i")

    def row(self, text: Optional[str]) -> int:
        """The row of ``text``, tokenizing it if it is new."""
        row = self._row_of.get(text)
        if row is None:
            row = self._row_of[text] = self._add(text)
        return row

    def _add(self, text: Optional[str]) -> int:
        tokens = tokenize(text, keep_handles=True)
        id_of = self._id_of
        for token in tokens:
            if token not in id_of:
                id_of[token] = len(self.tokens)
                self.tokens.append(token)
        words = len(tokens)
        while words and tokens[words - 1][0] in "@#":
            words -= 1
        start = len(self._ids)
        self._ids.extend(map(id_of.__getitem__, tokens))
        self._word_ends.append(start + words)
        self._starts.append(len(self._ids))
        return len(self._word_ends) - 1

    def documents(self, texts: Iterable[Optional[str]]) -> "Documents":
        """``texts`` as a corpus of their tokens."""
        return Documents(self, [self.row(text) for text in texts])

    def ids(self, row: int, handles: bool = True) -> array:
        """Row ``row``'s token ids, or its word ids when not ``handles``."""
        end = self._starts[row + 1] if handles else self._word_ends[row]
        return self._ids[self._starts[row] : end]


class Documents:
    """A corpus over a :class:`TokenStream`: document ``d`` is row
    ``rows[d]``, read as its tokens, or as its words when ``handles`` is
    False."""

    __slots__ = ("stream", "rows", "handles")

    def __init__(self, stream: TokenStream, rows: Sequence[int],
                 handles: bool = True) -> None:
        self.stream = stream
        self.rows = rows
        self.handles = handles

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> array:
        return self.stream.ids(self.rows[index], self.handles)

    def words(self) -> "Documents":
        """The same documents, read as their words."""
        return Documents(self.stream, self.rows, handles=False)

    def flat(self, start: int = 0, stop: Optional[int] = None) -> Tuple[
            np.ndarray, np.ndarray]:
        """Documents ``start:stop`` as ``(ids, offsets)``: their ids back
        to back, document ``start + d`` being ``ids[offsets[d]:offsets[d + 1]]``."""
        stream = self.stream
        rows = np.asarray(self.rows[start:stop], dtype=np.int64)
        starts = np.frombuffer(stream._starts, dtype=np.intc)[rows]
        if self.handles:
            ends = np.frombuffer(stream._starts, dtype=np.intc)[rows + 1]
        else:
            ends = np.frombuffer(stream._word_ends, dtype=np.intc)[rows]
        lengths = (ends - starts).astype(np.int64)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        index = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return np.frombuffer(stream._ids, dtype=np.intc)[index], offsets


__all__ = ["Documents", "TokenStream", "bigrams", "tokenize"]
