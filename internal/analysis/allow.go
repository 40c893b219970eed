package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The allowlist annotation:
//
//	//lint:allow <analyzer> <reason>
//
// suppresses diagnostics from exactly one analyzer on exactly one
// line. An annotation written at the end of a line suppresses
// diagnostics reported on that line; an annotation on a line of its
// own suppresses diagnostics on the next line. The reason is
// mandatory — an annotation without one is itself reported, so every
// audited exception carries its justification in the source.

const allowPrefix = "lint:allow"

// An allowEntry is one parsed //lint:allow annotation.
type allowEntry struct {
	analyzer string
	pos      token.Pos // of the comment, for malformed-annotation reports
	line     int       // source line the annotation applies to
}

// parseAllows extracts every //lint:allow annotation from the files.
// Malformed annotations (missing analyzer or reason) are returned
// separately as diagnostics so the driver can surface them.
func parseAllows(fset *token.FileSet, files []*ast.File) (entries []allowEntry, malformed []Finding) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				pos := fset.Position(c.Pos())
				if name == "" || reason == "" {
					malformed = append(malformed, Finding{
						Analyzer: "allowlist",
						Pos:      pos,
						Message:  "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\"",
					})
					continue
				}
				line := pos.Line
				if startsLine(fset, f, c) {
					// Annotation on its own line applies to the next line.
					line++
				}
				entries = append(entries, allowEntry{
					analyzer: name,
					pos:      c.Pos(),
					line:     line,
				})
			}
		}
	}
	return entries, malformed
}

// startsLine reports whether comment c is the first token on its
// source line (i.e. a standalone annotation rather than a trailing
// one). It scans the file's declarations for any node that ends on
// the comment's line before the comment starts.
func startsLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cpos := fset.Position(c.Pos())
	leading := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !leading {
			return false
		}
		if n.End() <= c.Pos() && fset.Position(n.End()).Line == cpos.Line {
			// Some code ends on the comment's line before it:
			// the comment trails that code.
			switch n.(type) {
			case *ast.File, *ast.BlockStmt:
				// Container nodes don't count as code.
			default:
				leading = false
			}
		}
		return n.Pos() < c.Pos()
	})
	return leading
}

// applyAllowlist filters findings through the annotations, keeping a
// finding only when no matching annotation covers its line. Each
// annotation suppresses any number of diagnostics from its named
// analyzer on its one line — but only that analyzer and only that
// line.
func applyAllowlist(fset *token.FileSet, files []*ast.File, findings []Finding) []Finding {
	entries, malformed := parseAllows(fset, files)
	kept := findings[:0]
	for _, fd := range findings {
		suppressed := false
		for _, e := range entries {
			if e.analyzer == fd.Analyzer && e.line == fd.Pos.Line &&
				sameFile(fset, e.pos, fd.Pos.Filename) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, fd)
		}
	}
	return append(kept, malformed...)
}

func sameFile(fset *token.FileSet, pos token.Pos, filename string) bool {
	f := fset.File(pos)
	return f != nil && f.Name() == filename
}
