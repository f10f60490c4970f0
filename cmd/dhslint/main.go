// Command dhslint runs the repository's custom static-analysis suite
// (internal/lint) over the given package patterns — a multichecker for
// the determinism, lockedcopy, conndeadline, lockrpc, and wirebounds
// analyzers that enforce DESIGN.md §10's invariants.
//
// Usage:
//
//	dhslint [-list] [-sarif] [packages]
//
// Patterns follow the go tool's shape ("./...", "./internal/...",
// "./cmd/dhsbench"); the default is "./...". Findings print as
// file:line:col: analyzer: message, one per line, and a non-empty run
// exits 1 — wire it into CI as a gate. Intentional exceptions are
// annotated in the source with //dhslint:allow analyzer(reason).
//
// -sarif emits the findings as a SARIF 2.1.0 log on stdout instead of
// the text lines, for GitHub code-scanning annotations; the exit-code
// contract is unchanged.
//
// dhslint needs no configuration and no network: it type-checks the
// module from source with the standard library alone.
package main

import (
	"flag"
	"fmt"
	"os"

	"dhsketch/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	sarif := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 on stdout")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewModuleLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhslint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhslint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(lint.All(), pkgs, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhslint:", err)
		os.Exit(2)
	}

	if *sarif {
		if err := lint.WriteSARIF(os.Stdout, lint.All(), diags, loader.Root); err != nil {
			fmt.Fprintln(os.Stderr, "dhslint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dhslint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
