"""Binary BCH codes: the multi-bit correcting codes of the paper.

The conventional alternatives the paper compares against scale the
per-word ECC strength:

* ``DECTED``  — double-error-correct, triple-error-detect  (t = 2),
* ``QECPED``  — quad-error-correct, penta-error-detect     (t = 4),
* ``OECNED``  — octal-error-correct, nona-error-detect     (t = 8).

Each is a shortened primitive binary BCH code with designed correction
capability ``t`` plus one extended overall-parity bit that raises the
detection capability to ``t + 1`` (the paper estimates their storage from
the corresponding Hamming distances 6, 10 and 18).

The implementation is a textbook systematic BCH encoder (polynomial
division by the generator over GF(2)) and decoder (syndromes →
Berlekamp–Massey → Chien search).
"""

from __future__ import annotations

import numpy as np

from .base import CodeStatus, DecodeResult, WordCode
from .galois import get_field

__all__ = ["BchCode", "DectedCode", "QecpedCode", "OecnedCode"]


def _gf2_poly_mul(a: int, b: int) -> int:
    """Multiply two GF(2) polynomials given as bit masks."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def _gf2_poly_deg(p: int) -> int:
    return p.bit_length() - 1


def _gf2_poly_mod(dividend: int, divisor: int) -> int:
    """Remainder of GF(2) polynomial division."""
    d_deg = _gf2_poly_deg(divisor)
    while dividend.bit_length() - 1 >= d_deg and dividend:
        shift = (dividend.bit_length() - 1) - d_deg
        dividend ^= divisor << shift
    return dividend


class BchCode(WordCode):
    """Shortened t-error-correcting binary BCH code with extended parity.

    Parameters
    ----------
    data_bits:
        Width of the protected data word (``k`` after shortening).
    t:
        Designed random-error correction capability.
    extended_parity:
        When True (default), one extra overall parity bit is stored,
        raising guaranteed detection from ``t`` + miscorrect-risk to
        ``t + 1`` errors, matching the paper's DECTED/QECPED/OECNED
        definitions.
    """

    def __init__(self, data_bits: int, t: int, extended_parity: bool = True):
        super().__init__(data_bits)
        if t < 1:
            raise ValueError("t must be at least 1")
        self._t = int(t)
        self._extended = bool(extended_parity)

        # Choose the smallest field GF(2^m) whose code length can hold the
        # data plus the parity the generator will need.  The generator
        # degree is at most m*t, so require 2^m - 1 >= data_bits + m*t.
        m = 3
        while (1 << m) - 1 < data_bits + m * t:
            m += 1
        self._field = get_field(m)
        self._n_full = (1 << m) - 1

        # Generator polynomial: LCM of the minimal polynomials of
        # α, α^2, ..., α^{2t}.  Distinct cyclotomic cosets only.
        seen_cosets: set[tuple[int, ...]] = set()
        generator = 1  # GF(2) polynomial bit mask
        for i in range(1, 2 * t + 1):
            coset = self._field.cyclotomic_coset(i)
            if coset in seen_cosets:
                continue
            seen_cosets.add(coset)
            generator = _gf2_poly_mul(generator, self._field.minimal_polynomial(i))
        self._generator = generator
        self._parity_len = _gf2_poly_deg(generator)
        if data_bits + self._parity_len > self._n_full:
            raise ValueError(
                f"data_bits={data_bits} with t={t} does not fit in GF(2^{m}) "
                f"BCH code of length {self._n_full}"
            )
        self.name = f"BCH(t={t})"

    # ------------------------------------------------------------------
    @property
    def t(self) -> int:
        """Designed error-correction capability."""
        return self._t

    @property
    def field_m(self) -> int:
        """The field degree m of GF(2^m) the code is built over."""
        return self._field.m

    @property
    def check_bits(self) -> int:
        return self._parity_len + (1 if self._extended else 0)

    @property
    def detect_bits(self) -> int:
        return self._t + 1 if self._extended else self._t

    @property
    def correct_bits(self) -> int:
        return self._t

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def _data_to_poly(self, data: np.ndarray) -> int:
        """Pack data bits into a GF(2) polynomial shifted above the parity."""
        value = 0
        for i, bit in enumerate(data):
            if bit:
                value |= 1 << i
        return value << self._parity_len

    def encode(self, data: np.ndarray) -> np.ndarray:
        data = self._validate_word(data)
        message_poly = self._data_to_poly(data)
        remainder = _gf2_poly_mod(message_poly, self._generator)
        check = np.zeros(self.check_bits, dtype=np.uint8)
        for i in range(self._parity_len):
            check[i] = (remainder >> i) & 1
        if self._extended:
            check[self._parity_len] = (int(data.sum()) + int(check[: self._parity_len].sum())) & 1
        return check

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def _syndromes(self, data: np.ndarray, check: np.ndarray) -> list[int]:
        field = self._field
        syndromes = []
        nonzero_positions = [
            p for p in range(self._parity_len) if check[p]
        ] + [self._parity_len + int(i) for i in np.nonzero(data)[0]]
        for j in range(1, 2 * self._t + 1):
            s = 0
            for pos in nonzero_positions:
                s ^= field.alpha_pow(pos * j)
            syndromes.append(s)
        return syndromes

    def _berlekamp_massey(self, syndromes: list[int]) -> list[int]:
        """Return the error-locator polynomial Λ(x), low-to-high coeffs."""
        field = self._field
        c = [1] + [0] * (2 * self._t)
        b = [1] + [0] * (2 * self._t)
        l, m_shift, bb = 0, 1, 1
        for n, s_n in enumerate(syndromes):
            # discrepancy
            d = s_n
            for i in range(1, l + 1):
                if c[i] and syndromes[n - i]:
                    d ^= field.multiply(c[i], syndromes[n - i])
            if d == 0:
                m_shift += 1
            elif 2 * l <= n:
                t_poly = c.copy()
                coef = field.divide(d, bb)
                for i in range(len(c) - m_shift):
                    if b[i]:
                        c[i + m_shift] ^= field.multiply(coef, b[i])
                l = n + 1 - l
                b = t_poly
                bb = d
                m_shift = 1
            else:
                coef = field.divide(d, bb)
                for i in range(len(c) - m_shift):
                    if b[i]:
                        c[i + m_shift] ^= field.multiply(coef, b[i])
                m_shift += 1
        # trim trailing zeros beyond degree l
        return c[: l + 1]

    def _chien_search(self, locator: list[int]) -> list[int] | None:
        """Find error positions; None when the locator does not factor."""
        field = self._field
        degree = len(locator) - 1
        if degree == 0:
            return []
        positions = []
        # The extended parity bit is outside the BCH codeword, so the
        # shortened codeword spans exactly parity + data positions.
        n_used = self._parity_len + self.data_bits
        for pos in range(n_used):
            # error at codeword position `pos` corresponds to locator root
            # α^{-pos}
            x = field.alpha_pow((-pos) % field.order)
            if field.poly_eval(locator, x) == 0:
                positions.append(pos)
        if len(positions) != degree:
            return None
        return positions

    def decode(self, data: np.ndarray, check: np.ndarray) -> DecodeResult:
        data = self._validate_word(data)
        check = self._validate_check(check)

        bch_check = check[: self._parity_len]
        syndromes = self._syndromes(data, bch_check)
        overall_mismatch = False
        if self._extended:
            overall = (int(data.sum()) + int(bch_check.sum()) + int(check[self._parity_len])) & 1
            overall_mismatch = bool(overall)

        if not any(syndromes) and not overall_mismatch:
            return DecodeResult(data=data.copy(), status=CodeStatus.CLEAN)

        if not any(syndromes) and overall_mismatch:
            # Only the extended parity bit itself flipped.
            return DecodeResult(
                data=data.copy(),
                status=CodeStatus.CORRECTED,
                corrected_check_bits=(self._parity_len,),
                syndrome_nonzero=True,
            )

        locator = self._berlekamp_massey(syndromes)
        n_errors = len(locator) - 1
        if n_errors > self._t:
            return DecodeResult(
                data=data.copy(),
                status=CodeStatus.DETECTED_UNCORRECTABLE,
                syndrome_nonzero=True,
            )
        positions = self._chien_search(locator)
        if positions is None:
            return DecodeResult(
                data=data.copy(),
                status=CodeStatus.DETECTED_UNCORRECTABLE,
                syndrome_nonzero=True,
            )
        if self._extended:
            # The extended parity distinguishes t+1 errors (even/odd
            # mismatch) from <=t errors; if the parity of the error count
            # disagrees with the overall parity the pattern has more errors
            # than the BCH believes.
            expected_parity_flip = (len(positions)) & 1
            if expected_parity_flip != (1 if overall_mismatch else 0):
                return DecodeResult(
                    data=data.copy(),
                    status=CodeStatus.DETECTED_UNCORRECTABLE,
                    syndrome_nonzero=True,
                )

        corrected = data.copy()
        corrected_data_bits = []
        corrected_check_bits = []
        for pos in positions:
            if pos >= self._parity_len + self.data_bits:
                return DecodeResult(
                    data=data.copy(),
                    status=CodeStatus.DETECTED_UNCORRECTABLE,
                    syndrome_nonzero=True,
                )
            if pos < self._parity_len:
                corrected_check_bits.append(pos)
            else:
                bit = pos - self._parity_len
                corrected[bit] ^= 1
                corrected_data_bits.append(bit)
        return DecodeResult(
            data=corrected,
            status=CodeStatus.CORRECTED,
            corrected_bits=tuple(sorted(corrected_data_bits)),
            corrected_check_bits=tuple(sorted(corrected_check_bits)),
            syndrome_nonzero=True,
        )


class DectedCode(BchCode):
    """DECTED: 2-bit correction, 3-bit detection (Hamming distance 6)."""

    def __init__(self, data_bits: int):
        super().__init__(data_bits, t=2, extended_parity=True)
        self.name = "DECTED"


class QecpedCode(BchCode):
    """QECPED: 4-bit correction, 5-bit detection (Hamming distance 10)."""

    def __init__(self, data_bits: int):
        super().__init__(data_bits, t=4, extended_parity=True)
        self.name = "QECPED"


class OecnedCode(BchCode):
    """OECNED: 8-bit correction, 9-bit detection (Hamming distance 18)."""

    def __init__(self, data_bits: int):
        super().__init__(data_bits, t=8, extended_parity=True)
        self.name = "OECNED"
