package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Structured logging for the service stack. Every record a daemon emits
// carries enough IDs to join it against spans and metrics: trace_id,
// job_id, worker, component. Packages take a *slog.Logger and treat nil as
// "off" — the nil check is the whole cost, keeping the
// no-collector-configured path free.

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (have debug, info, warn, error)", s)
}

// NewLogger builds a logger writing to w. format is "text" (default) or
// "json"; level is parsed by ParseLevel.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (have text, json)", format)
}
