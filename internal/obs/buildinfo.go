package obs

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// BuildInfo is the build identity every binary reports under -version
// and as db2www_build_info: the Go toolchain plus whatever VCS stamping the
// build embedded (absent under plain `go build` of a dirty tree —
// fields degrade to "unknown" rather than vanish).
type BuildInfo struct {
	GoVersion string
	Revision  string
	Time      string
	Modified  bool
}

// ReadBuildInfo extracts the build identity from the running binary.
func ReadBuildInfo() BuildInfo {
	bi := BuildInfo{GoVersion: runtime.Version(), Revision: "unknown", Time: "unknown"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	if info.GoVersion != "" {
		bi.GoVersion = info.GoVersion
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.Revision = s.Value
		case "vcs.time":
			bi.Time = s.Value
		case "vcs.modified":
			bi.Modified = s.Value == "true"
		}
	}
	return bi
}

// VersionLine renders the one-line -version output for a named binary.
func VersionLine(program string) string {
	bi := ReadBuildInfo()
	rev := bi.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	dirty := ""
	if bi.Modified {
		dirty = " (modified)"
	}
	return fmt.Sprintf("%s %s%s, %s, built %s", program, rev, dirty, bi.GoVersion, bi.Time)
}
