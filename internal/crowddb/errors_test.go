package crowddb

import (
	"os"
	"strings"
	"testing"
)

// TestErrorTableMatchesREADME: the README's list of error codes is the
// error table's rendering.
func TestErrorTableMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), "<!-- error-table:begin -->\n"+ErrorTableMarkdown()+"<!-- error-table:end -->") {
		t.Error("README.md error table is stale: regenerate the table between the error-table markers (make readme-api)")
	}
}
