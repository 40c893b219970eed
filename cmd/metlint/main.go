// metlint is the project's static-analysis gate: six analyzers
// (locksafe, atomicfield, nolockcopy, syncerr, crashpoint, deadfield)
// enforcing the engine's concurrency and durability invariants and
// keeping dead struct fields out. See internal/analysis and the
// per-analyzer package docs.
//
// It runs in two modes:
//
//	go vet -vettool=$(command -v metlint) ./...
//
// drives it through the go command's unitchecker protocol (the -V /
// -flags handshake followed by one *.cfg JSON file per package, with
// export data supplied by the build cache). This is how CI invokes
// it, and how it analyzes test variants of each package (which the
// crashpoint analyzer needs).
//
//	metlint [packages]
//
// is the standalone mode: it shells out to `go list -export` to load
// the same export data and analyzes every listed package in-process,
// defaulting to ./.... Having every package at once, it also checks the
// exported fields of internal packages module-wide (deadfield.Module);
// CI runs both modes.
//
// Exit status: 0 clean, 1 tool/typecheck error, 2 findings.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"met/internal/analysis"
	"met/internal/analysis/atomicfield"
	"met/internal/analysis/crashpoint"
	"met/internal/analysis/deadfield"
	"met/internal/analysis/locksafe"
	"met/internal/analysis/nolockcopy"
	"met/internal/analysis/syncerr"
)

var analyzers = []*analysis.Analyzer{
	locksafe.Analyzer,
	atomicfield.Analyzer,
	nolockcopy.Analyzer,
	syncerr.Analyzer,
	crashpoint.Analyzer,
	deadfield.Analyzer,
}

func main() {
	args := os.Args[1:]

	// The go command's vettool handshake: it first asks the tool to
	// identify itself (-V=full) and to enumerate its flags (-flags),
	// then invokes it once per package with a *.cfg file.
	if len(args) == 1 {
		switch {
		case strings.HasPrefix(args[0], "-V"):
			// The exact shape cmd/go's toolID parser accepts for an
			// unstamped binary.
			fmt.Printf("%s version devel comments-go-here buildID=gibberish\n",
				filepath.Base(os.Args[0]))
			return
		case args[0] == "-flags":
			fmt.Println("[]")
			return
		case args[0] == "help":
			usage()
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(unitcheckerMain(args[0]))
		}
	}

	os.Exit(standaloneMain(args))
}

func usage() {
	fmt.Printf("metlint: static analysis for the met engine\n\nAnalyzers:\n")
	for _, a := range analyzers {
		fmt.Printf("  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Printf("\nUsage:\n  metlint [packages]            (standalone, default ./...)\n" +
		"  go vet -vettool=metlint ./... (unitchecker mode)\n\n" +
		"Suppress one diagnostic with: //lint:allow <analyzer> <reason>\n")
}

// printFindings renders findings the way vet does, one per line.
func printFindings(findings []analysis.Finding) {
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
	}
}
