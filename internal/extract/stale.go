package extract

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// CheckStale re-runs the extractor and compares the fresh canonical
// serialization against the committed artifact. It returns a non-empty
// reason when the committed model is stale (missing, or no longer what
// the implementation extracts to) and an error when extraction itself
// fails — which is also a gate failure, since it means internal/core
// grew a pattern the extractor cannot model.
func CheckStale(moduleRoot string) (string, error) {
	fresh, err := Extract(moduleRoot)
	if err != nil {
		return "", err
	}
	fb, err := fresh.Canonical()
	if err != nil {
		return "", err
	}
	committed, cb, err := LoadArtifact(moduleRoot)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return "no committed " + ArtifactPath + "; run `ccmodel -write`", nil
		}
		return "", err
	}
	if bytes.Equal(fb, cb) {
		return "", nil
	}
	have := map[string]string{}
	for _, s := range committed.Sources {
		have[s.Path] = s.SHA256
	}
	var changed []string
	for _, s := range fresh.Sources {
		if have[s.Path] != s.SHA256 {
			changed = append(changed, s.Path)
		}
		delete(have, s.Path)
	}
	for path := range have {
		changed = append(changed, path+" (removed)")
	}
	sort.Strings(changed)
	msg := fmt.Sprintf("committed model %s is stale (fresh extraction is %s", committed.Fingerprint, fresh.Fingerprint)
	if len(changed) > 0 {
		msg += "; changed sources: " + strings.Join(dedupStrings(changed), ", ")
	}
	same, err := sameModel(fresh, committed)
	if err != nil {
		return "", err
	}
	if same {
		msg += "; rules, handlers and messages unchanged"
	}
	msg += "); run `ccmodel -write` and commit " + ArtifactPath
	return msg, nil
}

// sameModel reports whether two models differ at most in their fingerprint
// and source hashes: the implementation files changed, but not what they
// extract to.
func sameModel(a, b *Model) (bool, error) {
	x, y := *a, *b
	x.Sources, y.Sources = nil, nil
	xb, err := x.Canonical()
	if err != nil {
		return false, err
	}
	yb, err := y.Canonical()
	if err != nil {
		return false, err
	}
	return bytes.Equal(xb, yb), nil
}
