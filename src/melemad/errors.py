"""Exception types raised across the pipeline, one for each outcome a caller
tells apart.

ValidationError is bad input: a config, argument, file or pool that breaks
a documented invariant, and the CLI exits 2; its message names the fault.
Every other MelemadError is a run that failed on valid input, and the CLI
exits 1. Three such failures have a type of their own, so that a caller can
tell them apart: EmptySelection, the legitimate result of a threshold set
above every importance, which a caller may catch and retry; and Diverged
and Saturated, the meta-training and evaluation failures a run reports
loudly instead of writing outputs that look healthy. Catch MelemadError for
anything this library raises. check_fields is the one key-and-type check
that config files and checkpoint headers go through, and not_utf8 the one
error for a text file that does not decode.
"""
import math
import types
import typing


class MelemadError(Exception):
    """Base class for all library errors."""


class ValidationError(MelemadError):
    """A config, argument, file or data pool violates a documented
    invariant; the message names the fault."""


def not_utf8(what: str, exc: UnicodeDecodeError) -> ValidationError:
    """The error for a text file that is not UTF-8: it names the file and the
    bytes, but not the codec's position, which a text-mode file counts from
    its current decode chunk rather than from the file's start."""
    bad = exc.object[exc.start : exc.end]
    return ValidationError(f"{what} is not UTF-8 text: {exc.reason} {bad!r}")


class EmptySelection(MelemadError):
    """A selection threshold excluded every feature in every chunk."""


class Diverged(MelemadError):
    """A meta-iteration produced a NaN or Inf meta-loss or meta-gradient, or
    an evaluation episode a NaN or Inf query probability."""


class Saturated(MelemadError):
    """Most of a meta-training iteration's or an evaluation's query
    probabilities sit at the clamp bounds."""


def _is_a(value, hint) -> bool:
    """Whether a config value fits a field annotation. A bool is not an int,
    an int is a float, a float field takes only a finite value, and a tuple
    field takes a list."""
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return isinstance(value, int) or math.isfinite(value)
    if isinstance(hint, types.UnionType):
        return any(_is_a(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_is_a(v, item) for v in value)
    return isinstance(value, hint)


def check_fields(where: str, values: dict, hints: dict) -> None:
    """Raise ValidationError unless every key of values is one of hints and
    its value fits that key's annotation."""
    unknown = set(values) - set(hints)
    if unknown:
        raise ValidationError(
            f"{where} has unknown key(s) {sorted(unknown)}; it accepts {sorted(hints)}"
        )
    for key, value in values.items():
        hint = hints[key]
        if not _is_a(value, hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ValidationError(f"{where} key {key!r} must be {name}, got {value!r}")
