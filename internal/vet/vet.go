// Package vet is a flow-sensitive static analyzer for MiniCC programs
// that verifies the preconditions the Amplify pre-processor
// (internal/core) assumes but never checks. The paper leaves class
// selection to the designer (§5.1: some classes must be left
// un-amplified by hand) and the transform documents that structure
// reuse is only as correct as the source's constructor discipline;
// this package turns both caveats into machine-checked diagnostics so
// the transform can be applied blindly at scale.
//
// For every function and non-synthetic method the analyzer builds a
// control-flow graph (internal: cfg.go) and runs an
// abstract-interpretation dataflow (flow.go) over the states of
// pointer-typed fields and locals — uninitialized, null, freshly
// allocated, deleted, unknown — joined as a powerset lattice at merge
// points. On top of the per-function layer an interprocedural
// escape/lifetime analysis (escape.go) builds the program call graph —
// spawn edges included — and classifies every `new` site as
// non-escaping, thread-local or shared; its verdicts both drive the
// optimizer (frame promotion, thread-private pools, pool pre-sizing,
// see core.Options.Escape) and contribute three more defect classes.
// Nine defect classes are reported:
//
//	V001 ctor-uninit       a constructor path leaves a pointer field
//	                       unassigned: structure reuse would expose a
//	                       stale pointer instead of fresh-heap garbage
//	                       (the documented undefined-behavior
//	                       precondition of the transform)
//	V002 use-after-delete  a field or local is dereferenced after
//	                       delete and before reassignment: logical
//	                       deletion keeps the object alive and would
//	                       silently mask the defect (semantics
//	                       divergence)
//	V003 double-delete     delete of an already-deleted pointer: after
//	                       the rewrite the destructor runs twice on the
//	                       same live object
//	V004 alias-delete      delete of a field through a local alias,
//	                       which core.Rewrite does not rewrite: the
//	                       pooled object is freed physically while the
//	                       field still expects logical deletion
//	V005 field-escape      a pointer field is aliased into another
//	                       field, returned, or passed to a function: an
//	                       external reference outlives logical deletion
//	                       and makes shadow-pointer reuse unsound
//	V006 leak              an allocation has no reachable matching
//	                       delete (overwritten while live, never
//	                       deleted by any method, or held by a local at
//	                       return); warning only — pooling bounds, not
//	                       worsens, such growth
//	V007 cross-thread-use-after-delete  a pointer is deleted on one
//	                       side of a spawn hand-off while the other
//	                       side may still use it: under pooling the
//	                       slot can be recycled concurrently
//	V008 interproc-leak    an allocation escapes its creating function
//	                       and no caller path ever deletes it — the
//	                       per-function leak check (V006) cannot see
//	                       this; warning only
//	V009 escape-blocked    advisory: why a new site was not
//	                       frame-promoted (escapes via return, field
//	                       store, spawn, unbounded lifetime, ...)
//
// V001–V005 are errors and carry a class-level verdict: Eligibility
// folds them into the set of classes the pre-processor must
// auto-exclude. V007 is an error too but names the offending hand-off,
// not a class. V006 and V008 are warnings and do not affect
// eligibility; V009 is informational.
package vet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"amplify/internal/cc"
)

// Severity ranks a diagnostic.
type Severity int

// Severities.
const (
	// Info marks purely advisory findings (the escape-blocked promotion
	// reports of the interprocedural layer); they never gate anything.
	Info Severity = iota
	// Warning marks findings that do not make a class ineligible for
	// amplification (leaks: pooling can only bound them).
	Warning
	// Error marks findings that make the transform unsound or
	// semantics-diverging for the class involved.
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	}
	return "info"
}

// Diagnostic codes.
const (
	CodeCtorUninit     = "V001"
	CodeUseAfterDelete = "V002"
	CodeDoubleDelete   = "V003"
	CodeAliasDelete    = "V004"
	CodeFieldEscape    = "V005"
	CodeLeak           = "V006"
	// CodeCrossThreadUAD: a pointer is deleted on one side of a spawn
	// hand-off while the other side may still use it.
	CodeCrossThreadUAD = "V007"
	// CodeInterprocLeak: an allocation escapes its creating function and
	// no caller path ever deletes it.
	CodeInterprocLeak = "V008"
	// CodeEscapeBlocked: an info-level report explaining why a new site
	// was not frame-promoted by the escape analysis.
	CodeEscapeBlocked = "V009"
)

// codeNames are the short names used in eligibility reasons.
var codeNames = map[string]string{
	CodeCtorUninit:     "ctor-uninit",
	CodeUseAfterDelete: "use-after-delete",
	CodeDoubleDelete:   "double-delete",
	CodeAliasDelete:    "alias-delete",
	CodeFieldEscape:    "field-escape",
	CodeLeak:           "leak",
	CodeCrossThreadUAD: "cross-thread-use-after-delete",
	CodeInterprocLeak:  "interproc-leak",
	CodeEscapeBlocked:  "escape-blocked",
}

// codeSeverity maps every code to its severity.
var codeSeverity = map[string]Severity{
	CodeCtorUninit:     Error,
	CodeUseAfterDelete: Error,
	CodeDoubleDelete:   Error,
	CodeAliasDelete:    Error,
	CodeFieldEscape:    Error,
	CodeLeak:           Warning,
	CodeCrossThreadUAD: Error,
	CodeInterprocLeak:  Warning,
	CodeEscapeBlocked:  Info,
}

// Diag is one analyzer finding.
type Diag struct {
	Code     string
	Severity Severity
	Pos      cc.Pos
	// Class is the class the finding makes ineligible for amplification
	// (empty for findings with no class-level verdict, e.g. defects on
	// locals in free functions).
	Class string
	// Func names the enclosing function or Class::method, when the
	// finding is anchored in a body.
	Func string
	// Field names the pointer field or local involved, if any.
	Field string
	Msg   string
}

// String renders the diagnostic as "line:col: code severity: msg".
func (d Diag) String() string {
	return fmt.Sprintf("%s: %s %s: %s", d.Pos, d.Code, d.Severity, d.Msg)
}

// Result is the full analysis outcome for one program.
type Result struct {
	Diags []Diag
}

// HasErrors reports whether any error-severity finding exists.
func (r *Result) HasErrors() bool {
	for _, d := range r.Diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Counts returns the number of errors and warnings (info-level
// findings are counted in neither).
func (r *Result) Counts() (errors, warnings int) {
	for _, d := range r.Diags {
		switch d.Severity {
		case Error:
			errors++
		case Warning:
			warnings++
		}
	}
	return errors, warnings
}

// String renders one diagnostic per line.
func (r *Result) String() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Exclusion names a class the pre-processor must skip, and why.
type Exclusion struct {
	Class  string `json:"class"`
	Reason string `json:"reason"`
}

// Ineligible folds error-severity verdicts into a per-class exclusion
// set, ordered by class name. The reason lists the distinct codes that
// condemned the class.
func (r *Result) Ineligible() []Exclusion {
	byClass := map[string]map[string]bool{}
	for _, d := range r.Diags {
		if d.Severity != Error || d.Class == "" {
			continue
		}
		if byClass[d.Class] == nil {
			byClass[d.Class] = map[string]bool{}
		}
		byClass[d.Class][d.Code] = true
	}
	classes := make([]string, 0, len(byClass))
	for name := range byClass {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	out := make([]Exclusion, 0, len(classes))
	for _, name := range classes {
		codes := make([]string, 0, len(byClass[name]))
		for code := range byClass[name] {
			codes = append(codes, code+" "+codeNames[code])
		}
		sort.Strings(codes)
		out = append(out, Exclusion{Class: name, Reason: strings.Join(codes, ", ")})
	}
	return out
}

// Check analyzes a parsed program. The program must have been analyzed
// with cc.Analyze (CheckSource does both); if it was not, Check
// analyzes it first and returns an empty result when that fails.
func Check(prog *cc.Program) *Result {
	if prog.Classes == nil {
		if err := cc.Analyze(prog); err != nil {
			return &Result{}
		}
	}
	c := &checker{prog: prog, seen: map[string]bool{}}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *cc.ClassDecl:
			c.checkClass(d)
		case *cc.FuncDecl:
			if d.Body != nil {
				c.checkBody(funcCtx{fn: d}, d.Body, d.Params)
			}
		}
	}
	// The interprocedural layer contributes V008: allocations that
	// escape their creating function with no reachable delete on any
	// caller path.
	c.diags = append(c.diags, analyze(prog).leakDiags()...)
	sortDiags(c.diags)
	return &Result{Diags: c.diags}
}

// sortDiags orders diagnostics by position, then code, field and
// message, so every rendered or serialized diagnostic list is
// byte-stable across runs.
func sortDiags(diags []Diag) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Field != b.Field {
			return a.Field < b.Field
		}
		return a.Msg < b.Msg
	})
}

// CheckSource parses, analyzes and checks MiniCC source.
func CheckSource(src string) (*Result, error) {
	prog, err := cc.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := cc.Analyze(prog); err != nil {
		return nil, err
	}
	return Check(prog), nil
}

// Eligibility runs the analyzer and returns the classes that must not
// be amplified. It is the auto-exclude input for core.Options.
func Eligibility(prog *cc.Program) []Exclusion {
	return Check(prog).Ineligible()
}

// EligibilitySource is Eligibility over raw source.
func EligibilitySource(src string) ([]Exclusion, error) {
	res, err := CheckSource(src)
	if err != nil {
		return nil, err
	}
	return res.Ineligible(), nil
}

// JSON renders the result as machine-readable findings for CI.
func (r *Result) JSON(file string) ([]byte, error) {
	type jdiag struct {
		Code     string `json:"code"`
		Severity string `json:"severity"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Class    string `json:"class,omitempty"`
		Func     string `json:"func,omitempty"`
		Field    string `json:"field,omitempty"`
		Msg      string `json:"msg"`
	}
	errs, warns := r.Counts()
	out := struct {
		File        string      `json:"file"`
		Errors      int         `json:"errors"`
		Warnings    int         `json:"warnings"`
		Diags       []jdiag     `json:"diags"`
		AutoExclude []Exclusion `json:"autoExclude"`
	}{
		File:        file,
		Errors:      errs,
		Warnings:    warns,
		Diags:       make([]jdiag, 0, len(r.Diags)),
		AutoExclude: r.Ineligible(),
	}
	for _, d := range r.Diags {
		out.Diags = append(out.Diags, jdiag{
			Code: d.Code, Severity: d.Severity.String(),
			Line: d.Pos.Line, Col: d.Pos.Col,
			Class: d.Class, Func: d.Func, Field: d.Field, Msg: d.Msg,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}
