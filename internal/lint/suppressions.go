package lint

import "strings"

// parseAllow parses one comment's text as a //lint:allow directive.
// ok is false when the comment is not an allow directive at all
// (including "//lint:allowx", which is some other marker, not a
// sloppy allow). For a directive, rule is the first token after the
// marker and reason the rest; either may be empty, which makes the
// directive malformed.
func parseAllow(text string) (rule, reason string, ok bool) {
	rest, found := strings.CutPrefix(text, allowPrefix)
	if !found {
		return "", "", false
	}
	// The marker must stand alone: "//lint:allow" then whitespace (or
	// nothing). Without this, an unrelated "//lint:allowlist" comment
	// would parse as rule "list".
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", true
	}
	return fields[0], strings.Join(fields[1:], " "), true
}
