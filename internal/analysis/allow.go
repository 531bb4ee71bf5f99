package analysis

import (
	"go/ast"
	"slices"
	"strconv"
	"strings"
)

// The annotation grammar, one comment per exception:
//
//	//ndavet:allow <pass>[:<kind>] <reason>
//
// placed on the flagged line or on its own line immediately above it. The
// pass name must be one of the registered passes, the optional kind one of
// that pass's finding kinds (see Pass.Kinds), and the reason is mandatory —
// every sanctioned exception documents itself in-source. An annotation
// that grants nothing is itself a finding ("allow" pass), so stale
// exceptions cannot linger after the code they excused is fixed; a
// kind-pinned annotation goes stale as soon as its line stops producing
// that exact finding kind, even if the pass still fires there.
const allowPrefix = "ndavet:allow"

// allowEntry is one parsed //ndavet:allow annotation.
type allowEntry struct {
	file   string
	line   int
	pass   string
	kind   string // "" grants any kind of the pass
	reason string
	used   bool
}

// collectAllows parses every annotation in the module. Malformed ones are
// returned as findings immediately.
func collectAllows(m *Module) (entries []*allowEntry, malformed []Finding) {
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimPrefix(text, "/*")
					text = strings.TrimSuffix(text, "*/")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, allowPrefix) {
						continue
					}
					file, line, col := m.Rel(c.Pos())
					rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
					spec, reason, _ := strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					pass, kind, _ := strings.Cut(spec, ":")
					ps := passByName(pass)
					switch {
					case ps == nil:
						malformed = append(malformed, Finding{
							File: file, Line: line, Col: col, Tool: "ndavet", Pass: "allow",
							Message: "malformed annotation: want //ndavet:allow <pass>[:<kind>] <reason> with pass one of " +
								strings.Join(PassNames(), "|") + ", got pass " + quoteOr(pass),
						})
					case kind != "" && !slices.Contains(ps.Kinds, kind):
						malformed = append(malformed, Finding{
							File: file, Line: line, Col: col, Tool: "ndavet", Pass: "allow",
							Message: "malformed annotation: pass " + pass + " has no finding kind \"" + kind +
								"\" (have " + strings.Join(ps.Kinds, "|") + ")",
						})
					case reason == "":
						malformed = append(malformed, Finding{
							File: file, Line: line, Col: col, Tool: "ndavet", Pass: "allow",
							Message: "malformed annotation: //ndavet:allow " + spec + " needs a reason",
						})
					default:
						entries = append(entries, &allowEntry{file: file, line: line, pass: pass, kind: kind, reason: reason})
					}
				}
			}
		}
	}
	return entries, malformed
}

func quoteOr(s string) string {
	if s == "" {
		return "nothing"
	}
	return "\"" + s + "\""
}

// applyAllows marks findings granted by an annotation on the same line or
// the line above, then reports every annotation that granted nothing.
func applyAllows(findings []Finding, entries []*allowEntry) []Finding {
	byKey := map[string][]*allowEntry{}
	key := func(file string, line int, pass string) string {
		return file + "\x00" + pass + "\x00" + strconv.Itoa(line)
	}
	for _, e := range entries {
		// An annotation on line L grants line L (trailing comment) and
		// line L+1 (comment on its own line above the flagged statement).
		byKey[key(e.file, e.line, e.pass)] = append(byKey[key(e.file, e.line, e.pass)], e)
		byKey[key(e.file, e.line+1, e.pass)] = append(byKey[key(e.file, e.line+1, e.pass)], e)
	}
	for i := range findings {
		f := &findings[i]
		if f.Pass == "allow" {
			continue
		}
		for _, e := range byKey[key(f.File, f.Line, f.Pass)] {
			if e.kind != "" && e.kind != f.Kind {
				continue
			}
			e.used = true
			f.Allowed = true
			f.Reason = e.reason
			break
		}
	}
	for _, e := range entries {
		if !e.used {
			spec := e.pass
			if e.kind != "" {
				spec += ":" + e.kind
			}
			findings = append(findings, Finding{
				File: e.file, Line: e.line, Tool: "ndavet", Pass: "allow",
				Message: "unused //ndavet:allow " + spec + " annotation: no " + spec +
					" finding on this or the next line (fixed code? drop or re-pin the annotation)",
			})
		}
	}
	return findings
}

// kfinding places a finding of the given pass and kind at node.
func (m *Module) kfinding(pass, kind string, node ast.Node, msg string) Finding {
	file, line, col := m.Rel(node.Pos())
	return Finding{File: file, Line: line, Col: col, Tool: "ndavet", Pass: pass, Kind: kind, Message: msg}
}
