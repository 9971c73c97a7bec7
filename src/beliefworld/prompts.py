"""Prompt templates and the request/response shapes of reasoning calls.

Every reasoning step an agent performs (belief updates, plan prediction,
miscoordination judgment, message drafting, plan stepping, replanning, and
the three rule-construction roles) corresponds to one template here.
Templates carry ``$VAR$`` placeholders and an ordered list of labels the
answer must contain; :func:`parse_sections` recovers those labeled
sections from a completion, tolerating case and spacing but not missing
or reordered labels.

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

TEMPLATE_IDS = (
    "rules_propose",
    "rules_refine",
    "rules_review",
    "update_first",
    "update_zero",
    "predict_first",
    "predict_zero",
    "adaptive",
    "communicate",
    "plan_next",
    "replan",
)

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
    required_vars: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __post_init__(self):
        placeholders = set(_PLACEHOLDER_RE.findall(self.text))
        missing = placeholders - set(self.required_vars)
        if missing:
            raise TemplateError(
                f"template {self.id}: placeholders not declared: {sorted(missing)}"
            )
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
    backend: str  # scripted | llm

    def section(self, label: str, default: str = "") -> str:
        return self.sections.get(label, default)


def _load_catalog(raw: str | None = None) -> dict[str, PromptTemplate]:
    if raw is None:
        raw = resources.files("beliefworld").joinpath("data/prompt_catalog.json").read_text()
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
            required_vars=tuple(entry["required_vars"]),
            output_labels=tuple(entry["output_labels"]),
        )
    if overall.hexdigest() != data["sha256"]:
        raise TemplateError("prompt catalog: overall checksum mismatch")
    if set(catalog) != set(TEMPLATE_IDS):
        raise TemplateError("prompt catalog: unexpected template set")
    return catalog


_CATALOG = _load_catalog()


def template(template_id: str) -> PromptTemplate:
    try:
        return _CATALOG[template_id]
    except KeyError:
        raise TemplateError(f"unknown template id {template_id!r}") from None


def render(tmpl: PromptTemplate | str, vars: dict[str, str]) -> str:
    """Substitute every ``$VAR$``; missing or leftover placeholders raise."""
    if isinstance(tmpl, str):
        tmpl = template(tmpl)
    missing = [v for v in set(_PLACEHOLDER_RE.findall(tmpl.text)) if v not in vars]
    if missing:
        raise TemplateError(f"unbound {missing[0]}")
    text = tmpl.text
    for name in tmpl.required_vars:
        if name in vars:
            text = text.replace(f"${name}$", vars[name])
    leftover = _PLACEHOLDER_RE.search(text)
    if leftover:
        raise TemplateError(f"unbound {leftover.group(1)}")
    return text


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
