// Command readme-api regenerates the README's two generated tables:
// the API reference from the server's route registrations
// (crowddb.APIReferenceMarkdown) and the error codes from the server's
// error table (crowddb.ErrorTableMarkdown), each replacing whatever
// sits between its markers. Run it via `make readme-api` after changing
// the route surface or the error table; the crowddb tests
// TestAPIReferenceMatchesMux and TestErrorTableMatchesREADME fail while
// the README is stale.
package main

import (
	"fmt"
	"os"
	"strings"

	"crowdselect/internal/crowddb"
)

func main() {
	path := "README.md"
	if len(os.Args) > 1 {
		path = os.Args[1]
	}
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "readme-api:", err)
		os.Exit(1)
	}
	in := string(b)
	out := in
	for _, table := range []struct{ name, markdown string }{
		{"api-reference", crowddb.APIReferenceMarkdown()},
		{"error-table", crowddb.ErrorTableMarkdown()},
	} {
		begin, end := "<!-- "+table.name+":begin -->", "<!-- "+table.name+":end -->"
		i := strings.Index(out, begin)
		j := strings.Index(out, end)
		if i < 0 || j < 0 || j < i {
			fmt.Fprintf(os.Stderr, "readme-api: %s has no %s / %s markers\n", path, begin, end)
			os.Exit(1)
		}
		out = out[:i] + begin + "\n" + table.markdown + end + out[j+len(end):]
	}
	if out == in {
		return
	}
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "readme-api:", err)
		os.Exit(1)
	}
	fmt.Println("readme-api: regenerated", path)
}
