"""Prompt templates and the request/response shapes of reasoning calls.

Every reasoning step an agent performs (belief updates, plan prediction,
miscoordination judgment, message drafting, plan stepping, replanning, and
the three rule-construction roles) corresponds to one template here.
Templates carry ``$VAR$`` placeholders, filled in one pass so that values
are never rescanned, and an ordered list of labels the answer must
contain; :func:`parse_sections` recovers those labeled sections from a
completion, tolerating case and spacing but not missing or reordered labels,
and :func:`yes_no` reads the verdict a section gives.

A template's inputs are its placeholders, in order of first appearance
(:attr:`PromptTemplate.required_vars`), and :data:`TEMPLATE_IDS` is the
catalog's order, so the catalog file is the one declaration of each
prompt's id and inputs.

The catalog ships as a checksummed JSON data file; the loader refuses a
catalog whose per-template or overall digests do not match, so silent
edits of the template texts cannot go unnoticed.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from importlib import resources

_PLACEHOLDER_RE = re.compile(r"\$([A-Z][A-Z_]*)\$")


class TemplateError(ValueError):
    pass


class ParseFailure(ValueError):
    """A completion did not contain the labels the template demands."""

    def __init__(self, message: str, missing_label: str | None = None):
        super().__init__(message)
        self.missing_label = missing_label


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    text: str
    # The text's placeholders, in order of first appearance.
    required_vars: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __post_init__(self):
        if not self.output_labels:
            raise TemplateError(f"template {self.id}: no output labels")


@dataclass(frozen=True)
class ReasonerRequest:
    template_id: str
    vars: dict[str, str]


@dataclass(frozen=True)
class ReasonerResponse:
    sections: dict[str, str]
    raw: str

    def section(self, label: str) -> str:
        return self.sections.get(label, "")


def _load_catalog(raw: str | None = None) -> dict[str, PromptTemplate]:
    if raw is None:
        source = resources.files("beliefworld").joinpath("data/prompt_catalog.json")
        raw = source.read_text(encoding="utf-8")
    data = json.loads(raw)
    overall = hashlib.sha256()
    catalog: dict[str, PromptTemplate] = {}
    for entry in data["templates"]:
        digest = hashlib.sha256(entry["text"].encode("utf-8")).hexdigest()
        if digest != entry["sha256"]:
            raise TemplateError(f"template {entry['id']}: checksum mismatch")
        overall.update(digest.encode("ascii"))
        catalog[entry["id"]] = PromptTemplate(
            id=entry["id"],
            text=entry["text"],
            required_vars=tuple(dict.fromkeys(_PLACEHOLDER_RE.findall(entry["text"]))),
            output_labels=tuple(entry["output_labels"]),
        )
    if overall.hexdigest() != data["sha256"]:
        raise TemplateError("prompt catalog: overall checksum mismatch")
    return catalog


_CATALOG = _load_catalog()
# The catalog's order; the bench prints its per-template rows in it.
TEMPLATE_IDS = tuple(_CATALOG)


def template(template_id: str) -> PromptTemplate:
    try:
        return _CATALOG[template_id]
    except KeyError:
        raise TemplateError(f"unknown template id {template_id!r}") from None


def require_vars(tmpl: PromptTemplate | str, vars: dict[str, str]) -> PromptTemplate:
    """The template, once every var it requires is bound."""
    if isinstance(tmpl, str):
        tmpl = template(tmpl)
    missing = [v for v in tmpl.required_vars if v not in vars]
    if missing:
        raise TemplateError(f"unbound {missing[0]}")
    return tmpl


def render(tmpl: PromptTemplate | str, vars: dict[str, str]) -> str:
    """Substitute every ``$VAR$`` in one pass; values are never rescanned."""
    tmpl = require_vars(tmpl, vars)
    return _PLACEHOLDER_RE.sub(lambda m: vars[m.group(1)], tmpl.text)


def yes_no(text: str) -> bool | None:
    """A verdict: True or False when the first word, trailing punctuation
    stripped, is yes or no ("No, because ..." is a no); otherwise None,
    so "not sure", "none" and "nothing to add" are no verdict."""
    words = text.split(maxsplit=1)
    word = words[0].rstrip(".,;:!?-").lower() if words else ""
    return {"yes": True, "no": False}.get(word)


def _label_line(line: str) -> tuple[str, str] | None:
    """Split a potential ``Label: rest`` line into (normalized label, rest)."""
    if ":" not in line:
        return None
    head, _, rest = line.partition(":")
    head = " ".join(head.split()).lower()
    if not head or len(head) > 48:
        return None
    return head, rest.strip()


def _matches(normalized: str, label: str) -> bool:
    wanted = label.lower()
    return normalized == wanted or normalized.endswith(" " + wanted)


def parse_sections(tmpl: PromptTemplate | str, text: str) -> dict[str, str]:
    """Carve a completion into the template's labeled sections.

    Labels are matched at line starts, case-insensitively and with loose
    ``:`` spacing; a label may also be matched by its suffix (so that a
    name-bearing label such as an agent's plan line still parses).  Labels
    must appear in template order; a reordered label or a missing final
    label is a :class:`ParseFailure`.
    """
    if isinstance(tmpl, str):
        tmpl = template(tmpl)
    labels = tmpl.output_labels
    found: dict[str, list[str]] = {}
    current: str | None = None
    last_index = -1
    for line in text.splitlines():
        parsed = _label_line(line)
        matched = None
        if parsed is not None:
            normalized, rest = parsed
            for i, label in enumerate(labels):
                if _matches(normalized, label):
                    matched = (i, label, rest)
                    break
        if matched is not None:
            i, label, rest = matched
            if i <= last_index:
                raise ParseFailure(
                    f"label {label!r} out of order in completion", label
                )
            last_index = i
            current = label
            found[label] = [rest] if rest else []
        elif current is not None:
            found[current].append(line)
    if labels[-1] not in found:
        missing = [l for l in labels if l not in found]
        raise ParseFailure(f"missing label {missing[0]!r} in completion", missing[0])
    return {label: "\n".join(lines).strip() for label, lines in found.items()}
