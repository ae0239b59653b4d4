package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// Suppressions take the form
//
//	//cclint:ignore <check> <reason...>
//
// on the flagged line or the line directly above it. The reason is
// mandatory: a suppression without one is itself a finding, as is any
// bare //nolint comment (the repo-wide rule is that silenced warnings
// must say why).

// suppression is one parsed //cclint:ignore comment.
type suppression struct {
	file   string
	line   int
	check  string
	reason string
	pos    token.Pos
	used   bool
}

type suppressionSet struct {
	byLoc map[string][]*suppression // "file:line" -> suppressions
	all   []*suppression
}

// collectSuppressions parses every cclint:ignore comment in the package.
func collectSuppressions(pkg *Package) *suppressionSet {
	set := &suppressionSet{byLoc: map[string][]*suppression{}}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "cclint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "cclint:ignore"))
				s := &suppression{pos: c.Pos()}
				if len(fields) > 0 {
					s.check = fields[0]
				}
				if len(fields) > 1 {
					s.reason = strings.Join(fields[1:], " ")
				}
				p := pkg.Fset.Position(c.Pos())
				s.file, s.line = p.Filename, p.Line
				set.all = append(set.all, s)
				for _, ln := range []int{p.Line, p.Line + 1} {
					key := locKey(s.file, ln)
					set.byLoc[key] = append(set.byLoc[key], s)
				}
			}
		}
	}
	return set
}

func locKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// knownChecks is the vocabulary a cclint:ignore directive may name: the
// checks the analyzers declare and those of the hygiene pass below. A
// typo in a directive would silently suppress nothing while looking
// intentional, so unknown names are findings.
var knownChecks = func() map[string]bool {
	known := map[string]bool{"ignore-reason": true, "ignore-unknown": true, "nolint-reason": true}
	for _, a := range analyzers {
		for _, c := range a.checks {
			known[c] = true
		}
	}
	return known
}()

// covers reports whether a complete (check + reason) suppression matches
// the finding's location and check name, marking it used.
func (set *suppressionSet) covers(f Finding) bool {
	// Finding.Pos is "file:line:col".
	i := strings.LastIndex(f.Pos, ":")
	if i < 0 {
		return false
	}
	j := strings.LastIndex(f.Pos[:i], ":")
	if j < 0 {
		return false
	}
	file := f.Pos[:j]
	line := 0
	for _, ch := range f.Pos[j+1 : i] {
		line = line*10 + int(ch-'0')
	}
	for _, s := range set.byLoc[locKey(file, line)] {
		if s.check == f.Check && s.reason != "" {
			s.used = true
			return true
		}
	}
	return false
}

// checkCommentHygiene flags reasonless suppressions: cclint:ignore
// comments missing a check name or reason, and any //nolint comment that
// does not carry an explanation after the directive.
func checkCommentHygiene(pkg *Package, set *suppressionSet) []Finding {
	var out []Finding
	for _, s := range set.all {
		if s.check == "" || s.reason == "" {
			out = append(out, pkg.finding(s.pos, "ignore-reason",
				"cclint:ignore requires a check name and a reason: //cclint:ignore <check> <why>"))
			continue
		}
		if !knownChecks[s.check] {
			out = append(out, pkg.finding(s.pos, "ignore-unknown",
				fmt.Sprintf("cclint:ignore names unknown check %q; it suppresses nothing", s.check)))
		}
	}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "nolint") {
					continue
				}
				rest := strings.TrimPrefix(text, "nolint")
				// Accepted: "//nolint:lintername // because ...". The
				// reason is whatever follows a second comment marker.
				if idx := strings.Index(rest, "//"); idx < 0 || strings.TrimSpace(rest[idx+2:]) == "" {
					out = append(out, pkg.finding(c.Pos(), "nolint-reason",
						"//nolint without a reason; write //nolint:<linter> // <why>"))
				}
			}
		}
	}
	return out
}
