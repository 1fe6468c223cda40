"""Central unit declarations for the CAT public API.

Two sources:

* :func:`constants_units` scrapes ``src/repro/constants.py`` style
  modules — every ``#: ... [unit].`` comment annotates the assignment
  that follows, which is exactly how that module is written.
* :data:`API_SIGNATURES` is the curated registry for the thermo /
  transport / kinetics / heating public API.  Functions are matched
  **by call name** (the trailing attribute at a call site), so only
  names that are unambiguous across the codebase belong here —
  ``h_mass`` yes, ``h`` no.

A signature maps parameter names (in declaration order, ``self``
excluded) to unit strings, plus a return unit.  ``None`` means
"unconstrained" — the checker will not judge that slot.
"""

from __future__ import annotations

import io
import tokenize

from repro.analysis.dimensions import Dim, find_unit_tag


class Signature:
    """Declared units for one registered callable."""

    def __init__(self, params: list[tuple[str, str | None]],
                 returns: str | None) -> None:
        self.param_order = [name for name, _ in params]
        self.param_units: dict[str, Dim | None] = {}
        for name, unit in params:
            self.param_units[name] = (find_unit_tag(f"[{unit}]")
                                      if unit else None)
        self.returns: Dim | None = (find_unit_tag(f"[{returns}]")
                                    if returns else None)
        self.returns_raw = returns
        self.params_raw = dict(params)


#: call-site name -> Signature.  Units are tag strings ("J/kg" etc.).
API_SIGNATURES: dict[str, Signature] = {
    # thermo.mixture.MixtureThermo -----------------------------------
    "gas_constant": Signature([("y", "-")], "J/(kg K)"),
    "molar_mass": Signature([("y", "-")], "kg/mol"),
    "cp_mass": Signature([("T", "K")], "J/(kg K)"),
    "cv_mass": Signature([("T", "K")], "J/(kg K)"),
    "h_mass": Signature([("T", "K")], "J/kg"),
    "e_mass": Signature([("T", "K")], "J/kg"),
    "s_mass": Signature([("T", "K"), ("p", "Pa"), ("y", "-")], "J/(kg K)"),
    "sound_speed_frozen": Signature([("T", "K"), ("y", "-"), ("gamma", "-")],
                                    "m/s"),
    "gamma_frozen": Signature([("T", "K"), ("y", "-")], "-"),
    "T_from_e": Signature([("e", "J/kg"), ("y", "-")], "K"),
    "T_from_h": Signature([("h", "J/kg"), ("y", "-")], "K"),
    # thermo.statmech molar API --------------------------------------
    "g0": Signature([("T", "K")], "J/mol"),
    "g0_over_RT": Signature([("T", "K")], "-"),
    "gibbs": Signature([("T", "K"), ("p", "Pa")], "J/mol"),
    "e_vib_el": Signature([("Tv", "K")], "J/mol"),
    "cv_vib_el": Signature([("Tv", "K")], "J/(mol K)"),
    "e_vib_el_mass": Signature([("Tv", "K")], "J/kg"),
    "cv_vib_el_mass": Signature([("Tv", "K")], "J/(kg K)"),
    "h_tr_rot": Signature([("T", "K")], "J/mol"),
    "h_tr_rot_mass": Signature([("T", "K")], "J/kg"),
    # constants helpers ----------------------------------------------
    # ``ev`` is a dimensionless *count* of electron-volts (the body
    # multiplies by the elementary charge, which carries the units), so
    # the parameter slot is deliberately unconstrained.
    "ev_to_joule": Signature([("ev", None)], "J"),
    "wavenumber_to_joule": Signature([("cm1", "1/cm")], "J"),
    "wavenumber_to_kelvin": Signature([("cm1", "1/cm")], "K"),
    "planck_lambda": Signature([("wavelength_m", "m"),
                                ("temperature", "K")], "W/(m^2 sr m)"),
    "arrhenius_si": Signature([("a_cgs", None), ("order", "-")], None),
}


def constants_units(source: str) -> dict[str, Dim]:
    """Scrape ``#: … [unit].`` annotated module constants.

    Returns name -> Dim for every simple assignment whose immediately
    preceding ``#:`` comment carries a parseable unit tag.
    """
    pending: Dim | None = None
    pending_line = -10
    out: dict[str, Dim] = {}
    try:
        toks = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError):
        return out
    for i, tok in enumerate(toks):
        if tok.type == tokenize.COMMENT and tok.string.startswith("#:"):
            dim = find_unit_tag(tok.string)
            if dim is not None:
                pending = dim
                pending_line = tok.start[0]
        elif tok.type == tokenize.NAME and pending is not None:
            # the annotated assignment must start within 2 lines of
            # the comment: "NAME = ..." at column 0
            if (tok.start[1] == 0 and tok.start[0] <= pending_line + 2
                    and i + 1 < len(toks) and toks[i + 1].string == "="):
                out[tok.string] = pending
                pending = None
            elif tok.start[0] > pending_line + 2:
                pending = None
    return out
