#!/usr/bin/env python3
"""pivot_taint: secret-flow taint analysis over the C++ sources.

Pivot's privacy claim (PAPER.md sections 4-5) is that secret material —
threshold-Paillier key shares, MPC secret shares and MAC keys, the super
client's label vector, and Rng seed state — never leaves a party except as
ciphertext or as protocol-published shares. pivot_lint.py checks syntactic
invariants; this tool tracks *dataflow*: it taints secret values at their
declarations and reports when tainted data reaches an observable sink.

Sources (where taint enters)
  * the annotation registry tools/taint_model.json:
      - secret_fields   : struct/class members holding secret material
      - secret_params   : (function, parameter) pairs that receive secrets
      - secret_types    : declaring a local of such a type taints it
      - secret_returns  : calls whose result is secret
  * inline `// pivot:secret` markers on a field or local declaration line
  * a generated summary pass: a function whose return expression is
    tainted propagates taint to its callers' results (one level of call
    propagation — summaries are not themselves re-summarized).

Sinks (rules; each finding names one)
  status-leak         tainted expression interpolated into a Status message
  secret-print        tainted expression printed (cerr/printf/CHECK text)
  raw-send            Endpoint Send/Broadcast of a buffer built from
                      tainted data that was not encrypted first
  secret-branch       if/while/for/switch/ternary condition on tainted data
                      (secret-dependent control flow = timing channel)
  non-ct-compare      ==, !=, memcmp or strcmp on tainted operands; use
                      common/ct.h (CtEqual / EqualU128 / AllZeroU128)
  variable-time-call  tainted argument to a declared variable-time callee
                      (ModExp, Gcd, ...) — runtime depends on secret value

Sanitizers (where taint is laundered, from the registry)
  * encryption (Encrypt*, Rerandomize*): output is ciphertext
  * hashing (Sha256 Finish): output is a digest
  * protocol declassification (Open/OpenVec/JointDecrypt): opened values
    are public by protocol definition
  * share splitting (ShareOf*): output is an additive share

Suppressions
  A true-by-the-rules but protocol-sanctioned flow is silenced with
      // pivot-taint: allow(<rule>) <reason>
  on the finding line or the line directly above. The reason is mandatory
  and must be non-empty: a suppression without a written justification is
  itself reported (bad-suppression) and fails the run.

Usage:
  tools/pivot_taint.py [ROOT]              analyze src/ under ROOT
  tools/pivot_taint.py ROOT --files F...   analyze specific files only
  tools/pivot_taint.py ROOT --summaries    also print generated summaries
  tools/pivot_taint.py ROOT --list-suppressions
                                           list every active suppression

Exit status: 0 if clean, 1 if any finding, 2 on usage error.
See DESIGN.md, "Leakage model".
"""

import argparse
import json
import os
import re
import sys

CXX_EXTENSIONS = (".cc", ".cpp", ".h", ".hpp")
SKIP_DIR_NAMES = {".git", "bench_results", "third_party", "__pycache__"}
SKIP_DIR_PREFIXES = ("build",)

RULES = (
    "status-leak",
    "secret-print",
    "raw-send",
    "secret-branch",
    "non-ct-compare",
    "variable-time-call",
)

RE_SUPPRESS = re.compile(
    r"//\s*pivot-taint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)\s*(.*?)\s*$")
RE_MARKER = re.compile(r"//\s*pivot:secret\b")
RE_IDENT = re.compile(r"[A-Za-z_]\w*")
RE_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof", "new",
    "delete", "do", "else", "case", "default", "break", "continue",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "alignof", "decltype", "noexcept", "throw", "static_assert",
}
MUTATOR_METHODS = {
    "push_back", "emplace_back", "insert", "assign", "append",
    "Update", "WriteBytes", "WriteRaw", "WriteU8", "WriteU32", "WriteU64",
    "WriteI64", "WriteDouble", "WriteString",
}


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [taint:{self.rule}] {self.message}"


class Model:
    def __init__(self, doc):
        self.secret_fields = set(doc.get("secret_fields", []))
        self.secret_types = set(doc.get("secret_types", []))
        self.secret_returns = set(doc.get("secret_returns", []))
        # {"Func": ["param", ...]} — keys match the unqualified name.
        self.secret_params = {
            k: set(v) for k, v in doc.get("secret_params", {}).items()}
        # Member names that are public metadata even on tainted objects
        # (task kind, class counts, party ids): reading them does not
        # propagate taint.
        self.public_fields = set(doc.get("public_fields", []))
        self.sanitizers = set(doc.get("sanitizers", []))
        # {"Name": [positions]} — which operand's *value* drives the
        # callee's runtime: 0.. = argument index, -1 = method receiver.
        # (PowModN2(base, exp) is variable-time in the exponent, not the
        # base; flagging every operand would drown real findings.)
        self.variable_time = {
            k: list(v) for k, v in doc.get("variable_time", {}).items()}
        self.exempt_functions = set(doc.get("exempt_functions", []))
        self.exempt_files = set(doc.get("exempt_files", []))


def load_model(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return Model(doc)


# ---------------------------------------------------------------------------
# Lexical preprocessing
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text):
    """Blanks out comments, string and char literals, preserving offsets."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def find_balanced(text, open_idx, open_ch="(", close_ch=")"):
    """Index just past the parenthesis group opening at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def split_top_level(text, sep=","):
    """Splits on `sep` at paren/bracket/brace/angle depth 0."""
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def remove_calls(text, names):
    """Removes `obj.Name(...)` / `ns::Name(...)` call expressions for every
    name in `names`, so their (sanitized) results do not count as tainted."""
    if not names:
        return text
    pat = re.compile(
        r"(?:[A-Za-z_]\w*(?:::|\.|->))*(" +
        "|".join(re.escape(n) for n in sorted(names)) + r")\s*\(")
    while True:
        m = pat.search(text)
        if m is None:
            return text
        end = find_balanced(text, text.index("(", m.end() - 1))
        if end < 0:
            return text[:m.start()]
        text = text[:m.start()] + " " + text[end:]


# ---------------------------------------------------------------------------
# Function extraction
# ---------------------------------------------------------------------------

RE_FUNC_NAME = re.compile(r"(?:[A-Za-z_]\w*::)*(~?[A-Za-z_]\w*)\s*$")


class Function:
    def __init__(self, name, params_text, body_start, body_end, start_line):
        self.name = name
        self.params_text = params_text
        self.body_start = body_start  # offset just past '{'
        self.body_end = body_end      # offset of matching '}'
        self.start_line = start_line


def extract_functions(code):
    """Finds function definitions (best-effort, brace/paren matched)."""
    funcs = []
    i, n = 0, len(code)
    last_end = -1
    while i < n:
        op = code.find("(", i)
        if op < 0:
            break
        if op < last_end:  # inside a previously-recorded body
            i = op + 1
            continue
        name_m = RE_FUNC_NAME.search(code, 0, op)
        if not name_m or name_m.group(1) in CPP_KEYWORDS:
            i = op + 1
            continue
        close = find_balanced(code, op)
        if close < 0:
            break
        # Between ')' and '{': qualifiers, ctor-init list, trailing return.
        j = close
        depth = 0
        ok = False
        while j < n:
            c = code[j]
            if c in "([":
                depth += 1
            elif c in ")]":
                depth -= 1
            elif depth == 0:
                if c == "{":
                    ok = True
                    break
                if c in ";=}" or (c == "," and ":" not in code[close:j]):
                    break
            j += 1
        if not ok:
            i = op + 1
            continue
        body_end = find_balanced(code, j, "{", "}")
        if body_end < 0:
            break
        funcs.append(Function(
            name=name_m.group(1),
            params_text=code[op + 1:close - 1],
            body_start=j + 1,
            body_end=body_end - 1,
            start_line=code.count("\n", 0, j) + 1))
        last_end = body_end
        i = j + 1
    return funcs


def param_names(params_text):
    """Parameter names from a parameter-list string."""
    names = []
    for part in split_top_level(params_text):
        part = part.strip()
        if not part or part == "void":
            continue
        part = re.sub(r"=\s*[^,]*$", "", part).strip()  # default args
        m = re.search(r"([A-Za-z_]\w*)\s*(?:\[\s*\])?\s*$", part)
        if m and m.group(1) not in CPP_KEYWORDS:
            names.append(m.group(1))
    return names


def marker_decl_name(raw_line):
    """Declared name on a `// pivot:secret` declaration line.

    Cuts the initializer (`= ...`, `(...)`, `{...}`) and array extents,
    then takes the last identifier of the declarator — so qualified types
    (`std::string line`) yield the variable, not a namespace token.
    """
    text = strip_comments_and_strings(raw_line).strip().rstrip(";{,")
    for cut in (r"=[^=]", r"\(", r"\{", r"\["):
        m = re.search(cut, text)
        if m:
            text = text[:m.start()]
    idents = re.findall(r"[A-Za-z_]\w*", text)
    for name in reversed(idents):
        if name not in CPP_KEYWORDS:
            return name
    return None


# ---------------------------------------------------------------------------
# Statement iteration
# ---------------------------------------------------------------------------

def iter_statements(code, start, end, base_line):
    """Yields (line_no, statement_text) splitting on ; { } at paren depth 0."""
    depth = 0
    line = base_line
    stmt_start_line = base_line
    cur = []
    for i in range(start, end):
        c = code[i]
        if c == "\n":
            line += 1
        if c in "([":
            depth += 1
        elif c in ")]":
            depth = max(0, depth - 1)
        if depth == 0 and c in ";{}":
            text = "".join(cur).strip()
            if text:
                yield (stmt_start_line, text)
            cur = []
            stmt_start_line = line
            continue
        if not cur:
            if c.isspace():
                continue  # don't buffer leading whitespace: the statement's
            stmt_start_line = line  # line is that of its first real char
        cur.append(c)
    text = "".join(cur).strip()
    if text:
        yield (stmt_start_line, text)


# ---------------------------------------------------------------------------
# Taint analysis
# ---------------------------------------------------------------------------

RE_ASSIGN_OP = re.compile(r"(?<![=!<>+\-*/%&|^])=(?!=)|\+=|-=|\|=|&=|\^=")
RE_LHS_BASE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:(?:\[[^\]]*\])|(?:\.[A-Za-z_]\w*)|"
    r"(?:->[A-Za-z_]\w*))*\s*$")


def lhs_base_identifier(lhs_text):
    m = RE_LHS_BASE.search(lhs_text.strip())
    if m and m.group(1) not in CPP_KEYWORDS:
        return m.group(1)
    return None


class FileAnalysis:
    def __init__(self, rel, raw_text, model, summaries, in_ct_header=False):
        self.rel = rel
        self.raw_lines = raw_text.splitlines()
        self.code = strip_comments_and_strings(raw_text)
        self.model = model
        self.summaries = summaries
        self.in_ct_header = in_ct_header or rel.endswith("common/ct.h")
        self.findings = []
        self.suppressed = []  # (line, rule, reason)
        self._public_field_re = None
        self.markers = self._collect_markers()
        self.suppressions = self._collect_suppressions()
        self.functions = extract_functions(self.code)
        self.file_secret_fields = self._marker_fields()
        self.tainted_returns = set()
        self.clean_returns = set()

    # -- annotations ------------------------------------------------------

    def _collect_markers(self):
        out = set()
        for i, line in enumerate(self.raw_lines, 1):
            if RE_MARKER.search(line):
                out.add(i)
        return out

    def _collect_suppressions(self):
        out = {}
        for i, line in enumerate(self.raw_lines, 1):
            m = RE_SUPPRESS.search(line)
            if m:
                out[i] = (m.group(1), m.group(2))
        return out

    def _line_in_function(self, lineno):
        for f in self.functions:
            start = self.code.count("\n", 0, f.body_start) + 1
            end = self.code.count("\n", 0, f.body_end) + 1
            if start <= lineno <= end:
                return True
        return False

    def _marker_fields(self):
        """`// pivot:secret` on a declaration outside any function body
        declares a secret *field*: its name taints every file it is used
        in (the registry is the cross-file variant of this)."""
        fields = set()
        for lineno in self.markers:
            if self._line_in_function(lineno):
                continue
            name = marker_decl_name(self.raw_lines[lineno - 1])
            if name:
                fields.add(name)
        return fields

    # -- taint machinery --------------------------------------------------

    def _secret_call_names(self):
        return self.model.secret_returns | self.summaries

    RE_PUBLIC_LENGTH = re.compile(
        r"[A-Za-z_]\w*(?:\[[^\]]*\])*\s*(?:\.|->)\s*"
        r"(?:size|empty|length|capacity)\s*\(\s*\)")

    def _strip_sanitizers(self, text):
        # Container sizes are public throughout the protocol (batch sizes
        # and share counts are agreed up front), so `tainted.size()` does
        # not propagate taint; likewise declared-public metadata members.
        text = self.RE_PUBLIC_LENGTH.sub(" ", text)
        if self.model.public_fields:
            if self._public_field_re is None:
                self._public_field_re = re.compile(
                    r"[A-Za-z_]\w*(?:\[[^\]]*\])*\s*(?:\.|->)\s*(?:" +
                    "|".join(sorted(self.model.public_fields)) +
                    r")\b(?!\s*\()")
            text = self._public_field_re.sub(" ", text)
        return remove_calls(text, self.model.sanitizers)

    def _mentions_taint(self, text, tainted):
        """True if `text` (sanitizers already stripped) touches taint."""
        return bool(self._taint_atoms(text, tainted))

    def _taint_atoms(self, text, tainted):
        atoms = set()
        for m in RE_IDENT.finditer(text):
            name = m.group(0)
            # A name right after `.` or `->` is a member access: it only
            # matches registry/marker secret *fields*, never a tainted
            # local of the same name (`c.value` is about `c`, not the
            # local `value`).
            prefix = text[:m.start()].rstrip()
            is_member = prefix.endswith(".") or prefix.endswith("->")
            if not is_member and name in tainted:
                atoms.add(name)
            elif name in self.model.secret_fields or \
                    name in self.file_secret_fields:
                atoms.add(name)
        for m in RE_CALL.finditer(text):
            if m.group(1) in self._secret_call_names():
                atoms.add(m.group(1) + "()")
        return sorted(atoms)

    def _seed_taint(self, func, include_params=True):
        tainted = set()
        # secret_params are callee-context hardening contracts ("this
        # primitive must be safe for secret inputs"); they seed the body
        # analysis but are excluded when generating summaries, so that a
        # summary only says "returns data derived from a global secret"
        # and FpAdd-style primitives don't taint every call site.
        if include_params:
            declared = self.model.secret_params.get(func.name, set())
            for p in param_names(func.params_text):
                if p in declared:
                    tainted.add(p)
        # Parameters marked inline on the signature line(s).
        sig_line = func.start_line
        for lineno in self.markers:
            if abs(lineno - sig_line) <= 1 and not \
                    self._marker_line_is_local(func, lineno):
                for p in param_names(func.params_text):
                    if re.search(r"\b" + re.escape(p) + r"\b",
                                 self.raw_lines[lineno - 1]):
                        tainted.add(p)
        return tainted

    def _marker_line_is_local(self, func, lineno):
        body_first = self.code.count("\n", 0, func.body_start) + 1
        body_last = self.code.count("\n", 0, func.body_end) + 1
        return body_first <= lineno <= body_last

    def _propagate(self, func, tainted):
        """One fixpoint sweep; returns True if the taint set grew."""
        grew = False
        for lineno, stmt in iter_statements(
                self.code, func.body_start, func.body_end, func.start_line):
            clean = self._strip_sanitizers(stmt)

            # Inline marker on a local declaration.
            if lineno in self.markers and \
                    self._marker_line_is_local(func, lineno):
                name = marker_decl_name(self.raw_lines[lineno - 1])
                if name and name not in tainted:
                    tainted.add(name)
                    grew = True

            # Declaration of a secret type.
            dm = re.match(
                r"(?:const\s+)?(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)"
                r"(?:<[^;=]*>)?\s*[&*]*\s+([A-Za-z_]\w*)\s*(?:=|;|\{|$|\()",
                clean.strip())
            if dm and dm.group(1) in self.model.secret_types and \
                    dm.group(2) not in tainted:
                tainted.add(dm.group(2))
                grew = True
            # Secret type inside a template argument (vector<PartialKey>).
            tm = re.match(
                r"(?:const\s+)?[A-Za-z_][\w:]*\s*<([^;=]*)>\s*[&*]*\s*"
                r"([A-Za-z_]\w*)\s*(?:=|;|\{|$|\()", clean.strip())
            if tm and tm.group(2) not in tainted:
                inner = set(RE_IDENT.findall(tm.group(1)))
                if inner & self.model.secret_types:
                    tainted.add(tm.group(2))
                    grew = True

            # For-loop headers: the generic assignment rule below would
            # treat everything after `i =` (including the condition and
            # increment) as the right-hand side and taint the counter.
            fm = re.match(r"(?:\}\s*)?for\s*\(", clean.strip())
            if fm:
                s = clean.strip()
                end = find_balanced(s, s.index("(", fm.end() - 1))
                header = s[fm.end():end - 1] if end > 0 else s[fm.end():]
                rm = re.match(
                    r"[^;:]*?([A-Za-z_]\w*)\s*:\s*(.+)$", header, re.DOTALL)
                if rm and ";" not in header:
                    # Range-for: `for (const T& v : container)`.
                    if rm.group(1) not in tainted and \
                            self._mentions_taint(rm.group(2), tainted):
                        tainted.add(rm.group(1))
                        grew = True
                else:
                    clauses = split_top_level(header, ";")
                    op = RE_ASSIGN_OP.search(clauses[0])
                    if op:
                        lhs = lhs_base_identifier(clauses[0][:op.start()])
                        if lhs and lhs not in tainted and \
                                self._mentions_taint(
                                    clauses[0][op.end():], tainted):
                            tainted.add(lhs)
                            grew = True
                continue

            # PIVOT_ASSIGN_OR_RETURN(lhs-decl, rexpr)
            am = re.search(r"\bPIVOT_ASSIGN_OR_RETURN\s*\(", clean)
            if am:
                end = find_balanced(clean, clean.index("(", am.end() - 1))
                if end > 0:
                    inner = clean[am.end():end - 1]
                    parts = split_top_level(inner)
                    if len(parts) >= 2:
                        lhs = lhs_base_identifier(parts[0])
                        rhs = ",".join(parts[1:])
                        if lhs and lhs not in tainted and \
                                self._mentions_taint(rhs, tainted):
                            tainted.add(lhs)
                            grew = True
                continue

            # Plain assignment / initialized declaration.
            op = RE_ASSIGN_OP.search(clean)
            if op:
                lhs = lhs_base_identifier(clean[:op.start()])
                rhs = clean[op.end():]
                if lhs and lhs not in tainted and \
                        self._mentions_taint(rhs, tainted):
                    tainted.add(lhs)
                    grew = True

            # Mutation through a growing/writing method taints the object.
            for mm in re.finditer(
                    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(" +
                    "|".join(MUTATOR_METHODS) + r")\s*\(", clean):
                base = mm.group(1)
                end = find_balanced(clean, clean.index("(", mm.end() - 1))
                args = clean[mm.end():end - 1] if end > 0 else ""
                if base not in tainted and \
                        self._mentions_taint(args, tainted):
                    tainted.add(base)
                    grew = True

            # Encode*(value..., writer): the writer receives the taint.
            for em in re.finditer(r"\b(Encode\w*)\s*\(", clean):
                end = find_balanced(clean, clean.index("(", em.end() - 1))
                if end < 0:
                    continue
                parts = split_top_level(clean[em.end():end - 1])
                if len(parts) < 2:
                    continue
                writer = lhs_base_identifier(parts[-1])
                if writer and writer not in tainted and \
                        self._mentions_taint(",".join(parts[:-1]), tainted):
                    tainted.add(writer)
                    grew = True
        return grew

    def _return_is_tainted(self, func, tainted):
        for _, stmt in iter_statements(
                self.code, func.body_start, func.body_end, func.start_line):
            m = re.match(r"return\b(.*)", stmt.strip(), re.DOTALL)
            if m and self._mentions_taint(
                    self._strip_sanitizers(m.group(1)), tainted):
                return True
        return False

    # -- sinks ------------------------------------------------------------

    def _report(self, lineno, rule, message):
        # A suppression applies on the finding line itself, on the previous
        # line (trailing comment on a wrapped statement), or anywhere in
        # the contiguous //-comment block directly above the statement —
        # suppression reasons are encouraged to span several lines.
        sup = self.suppressions.get(lineno) or \
            self.suppressions.get(lineno - 1)
        if sup is None:
            ln = lineno - 1
            while ln >= 1 and \
                    self.raw_lines[ln - 1].strip().startswith("//"):
                if ln in self.suppressions:
                    sup = self.suppressions[ln]
                    break
                ln -= 1
        if sup is not None:
            sup_rules, reason = sup
            if rule in {r.strip() for r in sup_rules.split(",")}:
                if reason:
                    self.suppressed.append((lineno, rule, reason))
                    return
                self.findings.append(Finding(
                    self.rel, lineno, "bad-suppression",
                    f"suppression of [{rule}] has no reason; write "
                    "`// pivot-taint: allow(" + rule + ") <why this flow "
                    "is safe>`"))
                return
        self.findings.append(Finding(self.rel, lineno, rule, message))

    def _check_sinks(self, func, tainted):
        for lineno, stmt in iter_statements(
                self.code, func.body_start, func.body_end, func.start_line):
            clean = self._strip_sanitizers(stmt)
            self._check_branch(lineno, clean, tainted)
            self._check_compare(lineno, clean, tainted)
            self._check_status(lineno, clean, tainted)
            self._check_print(lineno, clean, tainted)
            self._check_send(lineno, clean, tainted)
            self._check_variable_time(lineno, clean, tainted)

    def _check_branch(self, lineno, stmt, tainted):
        s = stmt.strip()
        for kw in ("if", "while", "switch"):
            m = re.match(r"(?:\}\s*)?(?:else\s+)?" + kw + r"\s*\(", s)
            if m:
                end = find_balanced(s, s.index("(", m.end() - 1))
                cond = s[m.end():end - 1] if end > 0 else s[m.end():]
                atoms = self._taint_atoms(cond, tainted)
                if atoms:
                    self._report(
                        lineno, "secret-branch",
                        f"{kw} condition depends on secret data "
                        f"({', '.join(atoms)}); secret-dependent control "
                        "flow is a timing channel — restructure with "
                        "common/ct.h selects/masks")
                return
        m = re.match(r"for\s*\(", s)
        if m:
            end = find_balanced(s, s.index("(", m.end() - 1))
            clauses = split_top_level(
                s[m.end():end - 1] if end > 0 else s[m.end():], ";")
            cond = clauses[1] if len(clauses) >= 2 else ""
            atoms = self._taint_atoms(cond, tainted)
            if atoms:
                self._report(
                    lineno, "secret-branch",
                    f"loop bound depends on secret data "
                    f"({', '.join(atoms)}); iteration count leaks through "
                    "timing — bound the loop by a public size")
            return
        q = s.find("?")
        if q > 0 and ":" in s[q:]:
            # The ternary condition is the trailing expression before `?`,
            # bounded by the nearest (, comma, logical operator, or
            # statement keyword — not everything since line start.
            cond = re.split(r"[(,;{]|&&|\|\||\breturn\b", s[:q])[-1]
            op = RE_ASSIGN_OP.search(cond)
            if op:
                cond = cond[op.end():]
            atoms = self._taint_atoms(cond, tainted)
            if atoms:
                self._report(
                    lineno, "secret-branch",
                    f"ternary condition depends on secret data "
                    f"({', '.join(atoms)}); use a constant-time select "
                    "(common/ct.h CtSelect/SelectU128)")

    def _check_compare(self, lineno, stmt, tainted):
        if self.in_ct_header:
            return  # the constant-time implementations themselves
        for m in re.finditer(
                r"([^=!<>&|,;?:]{1,120}?)\s*(==|!=)\s*([^=&|,;?:)]{1,120})",
                stmt):
            left, right = m.group(1), m.group(3)
            atoms = self._taint_atoms(left, tainted) + \
                self._taint_atoms(right, tainted)
            if atoms:
                self._report(
                    lineno, "non-ct-compare",
                    f"variable-time {m.group(2)} on secret data "
                    f"({', '.join(sorted(set(atoms)))}); route through "
                    "common/ct.h (CtEqual / EqualU128 / AllZeroU128)")
                return
        for m in re.finditer(r"\b(memcmp|strcmp|strncmp)\s*\(", stmt):
            end = find_balanced(stmt, stmt.index("(", m.end() - 1))
            args = stmt[m.end():end - 1] if end > 0 else stmt[m.end():]
            atoms = self._taint_atoms(args, tainted)
            if atoms:
                self._report(
                    lineno, "non-ct-compare",
                    f"{m.group(1)} on secret data "
                    f"({', '.join(atoms)}); memcmp early-exits on the "
                    "first differing byte — use ct::CtEqual")
                return

    def _check_status(self, lineno, stmt, tainted):
        for m in re.finditer(r"\bStatus(?:::[A-Za-z]+)?\s*\(", stmt):
            end = find_balanced(stmt, stmt.index("(", m.end() - 1))
            args = stmt[m.end():end - 1] if end > 0 else stmt[m.end():]
            atoms = self._taint_atoms(args, tainted)
            if atoms:
                self._report(
                    lineno, "status-leak",
                    f"secret data ({', '.join(atoms)}) interpolated into a "
                    "Status message; error text crosses party and log "
                    "boundaries — log lengths or digests instead")
                return

    def _check_print(self, lineno, stmt, tainted):
        printish = re.search(
            r"std::cerr\b|std::cout\b|\bfprintf\s*\(|\bprintf\s*\(|"
            r"\bputs\s*\(", stmt)
        if printish:
            atoms = self._taint_atoms(stmt, tainted)
            if atoms:
                self._report(
                    lineno, "secret-print",
                    f"secret data ({', '.join(atoms)}) written to a "
                    "stdio stream; never print key/share material")
            return
        m = re.search(r"\bPIVOT_CHECK_MSG\s*\(", stmt)
        if m:
            end = find_balanced(stmt, stmt.index("(", m.end() - 1))
            parts = split_top_level(stmt[m.end():end - 1] if end > 0
                                    else stmt[m.end():])
            if len(parts) >= 2:
                atoms = self._taint_atoms(",".join(parts[1:]), tainted)
                if atoms:
                    self._report(
                        lineno, "secret-print",
                        f"secret data ({', '.join(atoms)}) in a "
                        "PIVOT_CHECK_MSG message (printed to stderr on "
                        "failure)")

    def _check_send(self, lineno, stmt, tainted):
        for m in re.finditer(r"\b(?:Send|Broadcast)\s*\(", stmt):
            end = find_balanced(stmt, stmt.index("(", m.end() - 1))
            args = stmt[m.end():end - 1] if end > 0 else stmt[m.end():]
            atoms = self._taint_atoms(args, tainted)
            if atoms:
                self._report(
                    lineno, "raw-send",
                    f"secret data ({', '.join(atoms)}) sent over an "
                    "Endpoint without encryption; only ciphertexts and "
                    "protocol-published shares may leave a party")
                return

    RE_VT_CALL = re.compile(
        r"(?:([A-Za-z_]\w*(?:\[[^\]]*\])*)\s*(?:\.|->)\s*)?"
        r"([A-Za-z_]\w*)\s*\(")

    def _check_variable_time(self, lineno, stmt, tainted):
        for m in re.finditer(self.RE_VT_CALL, stmt):
            positions = self.model.variable_time.get(m.group(2))
            if positions is None:
                continue
            end = find_balanced(stmt, stmt.index("(", m.end() - 1))
            args = split_top_level(
                stmt[m.end():end - 1] if end > 0 else stmt[m.end():])
            atoms = []
            for pos in positions:
                if pos == -1:
                    operand = m.group(1) or ""
                elif pos < len(args):
                    operand = args[pos]
                else:
                    continue
                atoms += self._taint_atoms(operand, tainted)
            if atoms:
                self._report(
                    lineno, "variable-time-call",
                    f"secret data ({', '.join(sorted(set(atoms)))}) in a "
                    f"timing-relevant operand of variable-time "
                    f"{m.group(2)}(); its runtime depends on the operand "
                    "value")
                return

    # -- driver -----------------------------------------------------------

    def analyze_function(self, func, collect_summaries_only=False):
        if func.name in self.model.exempt_functions:
            return
        tainted = self._seed_taint(
            func, include_params=not collect_summaries_only)
        for _ in range(12):
            if not self._propagate(func, tainted):
                break
        if collect_summaries_only:
            if self._return_is_tainted(func, tainted):
                self.tainted_returns.add(func.name)
            else:
                self.clean_returns.add(func.name)
        else:
            self._check_sinks(func, tainted)

    def run(self, collect_summaries_only=False):
        for ex in self.model.exempt_files:
            if self.rel == ex or (ex.endswith("/") and
                                  self.rel.startswith(ex)):
                return
        for func in self.functions:
            self.analyze_function(func, collect_summaries_only)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def collect_files(root):
    out = []
    src_root = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in SKIP_DIR_NAMES
            and not any(d.startswith(p) for p in SKIP_DIR_PREFIXES))
        for name in sorted(filenames):
            if name.endswith(CXX_EXTENSIONS):
                out.append(os.path.relpath(os.path.join(dirpath, name), root))
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--files", nargs="*", default=None,
                        help="analyze only these paths (relative to ROOT)")
    parser.add_argument("--model", default=None,
                        help="path to taint_model.json (default: next to "
                             "this script)")
    parser.add_argument("--summaries", action="store_true",
                        help="print the generated call summaries")
    parser.add_argument("--list-suppressions", action="store_true",
                        help="list active suppressions and their reasons")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"pivot_taint: not a directory: {root}", file=sys.stderr)
        return 2
    model_path = args.model or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "taint_model.json")
    try:
        model = load_model(model_path)
    except (OSError, ValueError) as e:
        print(f"pivot_taint: cannot load model {model_path}: {e}",
              file=sys.stderr)
        return 2

    rels = args.files if args.files is not None else collect_files(root)
    rels = [r.replace(os.sep, "/") for r in rels]

    texts = {}
    for rel in rels:
        try:
            with open(os.path.join(root, rel), "r", encoding="utf-8",
                      errors="replace") as f:
                texts[rel] = f.read()
        except OSError as e:
            print(f"{rel}:0: [taint:io] cannot read file: {e}")
            return 1

    # Pass 1: generate return-taint summaries per function name. Summaries
    # are keyed by unqualified name, so a name is summarized as tainted
    # only when EVERY definition of it has a tainted return — otherwise
    # one secret-returning overload or same-named method in another class
    # would taint every call site of all the others.
    tainted_names, clean_names = set(), set()
    for rel, text in texts.items():
        fa = FileAnalysis(rel, text, model, set())
        fa.run(collect_summaries_only=True)
        tainted_names |= fa.tainted_returns
        clean_names |= fa.clean_returns
    summaries = tainted_names - clean_names
    if args.summaries:
        for name in sorted(summaries):
            print(f"summary: {name}() returns tainted data")
        for name in sorted(tainted_names & clean_names):
            print(f"summary: {name}() ambiguous (mixed definitions), "
                  "skipped")

    # Pass 2: full analysis with summaries as additional sources.
    findings, suppressed = [], []
    for rel, text in texts.items():
        fa = FileAnalysis(rel, text, model, summaries)
        fa.run()
        findings.extend(fa.findings)
        suppressed.extend((rel, ln, rule, reason)
                          for ln, rule, reason in fa.suppressed)

    if args.list_suppressions:
        for rel, ln, rule, reason in sorted(suppressed):
            print(f"suppressed: {rel}:{ln}: [taint:{rule}] {reason}")

    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f)
    if findings:
        print(f"pivot_taint: {len(findings)} finding(s) in "
              f"{len(set(f.path for f in findings))} file(s) "
              f"({len(suppressed)} suppressed)", file=sys.stderr)
        return 1
    print(f"pivot_taint: OK ({len(rels)} files, "
          f"{len(summaries)} tainted-return summaries, "
          f"{len(suppressed)} suppressed)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
