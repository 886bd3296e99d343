package serve

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
)

// ModelEntry describes one model a routed Server hosts: a route name, the
// engine replica pool executing it, the per-model batching knobs, and an
// optional altitude ceiling for default-route selection.
type ModelEntry struct {
	// Name is the routing key clients select the model by (?model= query
	// parameter or X-Model header). Must be unique within a server.
	Name string
	// Engine is this model's private replica pool; the Server runs one
	// admission queue, one batcher and Engine.Workers() batch workers on it.
	Engine *engine.Engine
	// Config tunes this model's micro-batching independently of its
	// neighbours (zero-value knobs take the usual defaults).
	Config Config
	// MaxAltitude, when > 0, enters this model into the altitude default
	// route: a request carrying an altitude (and no explicit model) is
	// served by the registered model with the smallest MaxAltitude at or
	// above that altitude. Models with MaxAltitude == 0 take no part in
	// altitude routing except as the overflow target (see Server routing
	// docs). The paper's operating-scenario trade-off is exactly this knob:
	// low flight ⇒ large targets ⇒ a small fast model suffices; high flight
	// ⇒ small targets ⇒ route to the bigger-input model.
	MaxAltitude float64
	// Weight is the model's fair-share weight for idle-worker lending:
	// when several backlogged pools compete for spare fleet capacity, the
	// scheduler grants borrowed slots so each pool's active-batch count
	// stays proportional to its weight. Zero or negative normalizes to 1
	// (equal shares).
	Weight float64
	// Degrade names the cheaper sibling model brownout degradation serves
	// implicitly-routed requests from while this model's queue depth is
	// over its watermark (three quarters of its queue capacity, see
	// brownoutEnter). Empty disables degradation for this model. The name is resolved against
	// the live table per request, so a hot-removed sibling simply stops
	// absorbing downgrades.
	Degrade string
}

// ModelSpec is one parsed entry of a `-models` flag:
//
//	name=model:size:precision[:maxalt][:weight][:degrade=sibling]
//
// e.g. "low=dronet:96:int8:150" — route name "low", DroNet architecture at
// 96px input, INT8-quantized, serving the altitude band up to 150m — or
// "low=dronet:96:int8:150:2" to additionally give the pool twice the fair
// share of borrowed workers. The maxalt field is optional; without it the
// model is routed only explicitly, as the default (first spec), or as the
// overflow above every bounded altitude band. A weight without an altitude
// band leaves the fourth field empty: "big=dronet:608:fp32::2". The
// degrade field, always last when present, names another spec in the same
// flag as this model's brownout sibling:
// "high=dronet:96:fp32:degrade=low" serves implicitly-routed requests from
// "low" while "high" is over its brownout watermark.
type ModelSpec struct {
	Name        string
	Model       string
	Size        int
	Precision   string
	MaxAltitude float64
	// Weight is the fair-share lending weight; ParseModelSpecs normalizes
	// an absent weight to 1, so a parsed spec always carries a positive
	// finite value.
	Weight float64
	// Degrade is the brownout sibling's route name ("" = none); it must
	// name another spec in the same -models value.
	Degrade string
}

// String formats the spec back into flag syntax; parse→String→parse is the
// identity on the parsed struct (the fuzz target's invariant). A weight of
// exactly 1 is the default and is omitted.
func (m ModelSpec) String() string {
	s := fmt.Sprintf("%s=%s:%d:%s", m.Name, m.Model, m.Size, m.Precision)
	switch {
	case m.MaxAltitude > 0 && m.Weight != 1:
		s += ":" + strconv.FormatFloat(m.MaxAltitude, 'g', -1, 64) +
			":" + strconv.FormatFloat(m.Weight, 'g', -1, 64)
	case m.MaxAltitude > 0:
		s += ":" + strconv.FormatFloat(m.MaxAltitude, 'g', -1, 64)
	case m.Weight != 1:
		s += "::" + strconv.FormatFloat(m.Weight, 'g', -1, 64)
	}
	if m.Degrade != "" {
		s += ":degrade=" + m.Degrade
	}
	return s
}

// specSyntax is the grammar reminder embedded in every parse error.
const specSyntax = "name=model:size:precision[:maxalt][:weight][:degrade=sibling]"

// ParseModelSpecs parses a comma-separated `-models` flag value. Names must
// be unique; precision must be fp32 or int8; size must be a positive
// integer; maxalt (optional) a positive finite float; weight (optional) a
// positive finite float, defaulting to 1. An empty maxalt field is allowed
// when a weight follows it ("name=m:608:fp32::2"). The first spec is the
// server's default route.
func ParseModelSpecs(s string) ([]ModelSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("serve: empty -models spec")
	}
	seen := make(map[string]bool)
	var specs []ModelSpec
	for _, raw := range strings.Split(s, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			return nil, fmt.Errorf("serve: empty entry in -models %q", s)
		}
		name, rest, ok := strings.Cut(raw, "=")
		// Trim around every separator: "low = dronet : 96 : fp32" must
		// register the route name "low", not "low " — a name with stray
		// whitespace would be accepted at startup yet never match a
		// ?model= selection.
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("serve: -models entry %q: want %s", raw, specSyntax)
		}
		if seen[name] {
			return nil, fmt.Errorf("serve: duplicate model name %q in -models", name)
		}
		seen[name] = true
		fields := strings.Split(rest, ":")
		for i, f := range fields {
			fields[i] = strings.TrimSpace(f)
		}
		degrade := ""
		// The degrade field is positionally last whenever present, after
		// the three mandatory fields — popping it here lets the optional
		// maxalt/weight rules below stay exactly as they were.
		if last := fields[len(fields)-1]; len(fields) >= 4 && strings.HasPrefix(last, "degrade=") {
			degrade = strings.TrimSpace(strings.TrimPrefix(last, "degrade="))
			if degrade == "" {
				return nil, fmt.Errorf("serve: -models entry %q: empty degrade sibling", raw)
			}
			if degrade == name {
				return nil, fmt.Errorf("serve: -models entry %q: model cannot degrade to itself", raw)
			}
			fields = fields[:len(fields)-1]
		}
		if len(fields) < 3 || len(fields) > 5 {
			return nil, fmt.Errorf("serve: -models entry %q: want %s", raw, specSyntax)
		}
		spec := ModelSpec{Name: name, Model: fields[0], Precision: fields[2], Weight: 1, Degrade: degrade}
		if spec.Model == "" {
			return nil, fmt.Errorf("serve: -models entry %q: empty model architecture", raw)
		}
		size, err := strconv.Atoi(fields[1])
		if err != nil || size < 1 {
			return nil, fmt.Errorf("serve: -models entry %q: bad size %q", raw, fields[1])
		}
		spec.Size = size
		if spec.Precision != "fp32" && spec.Precision != "int8" {
			return nil, fmt.Errorf("serve: -models entry %q: precision %q (want fp32 or int8)", raw, spec.Precision)
		}
		if len(fields) >= 4 && fields[3] != "" {
			alt, err := strconv.ParseFloat(fields[3], 64)
			// !(alt > 0) rejects NaN too — "NaN" parses without error but
			// compares false on every ordering.
			if err != nil || !(alt > 0) || math.IsInf(alt, 0) {
				return nil, fmt.Errorf("serve: -models entry %q: bad max altitude %q", raw, fields[3])
			}
			spec.MaxAltitude = alt
		} else if len(fields) == 4 {
			// A bare trailing colon ("m:96:fp32:") is a typo, not an empty
			// band; the empty fourth field is only meaningful as a weight
			// placeholder in the 5-field form.
			return nil, fmt.Errorf("serve: -models entry %q: empty max altitude (want %s)", raw, specSyntax)
		}
		if len(fields) == 5 {
			w, err := strconv.ParseFloat(fields[4], 64)
			if err != nil || !(w > 0) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("serve: -models entry %q: bad weight %q", raw, fields[4])
			}
			spec.Weight = w
		}
		specs = append(specs, spec)
	}
	// Degrade references resolve within the same flag value: a sibling that
	// is not hosted could never absorb a downgrade, so catch the typo at
	// startup instead of silently serving un-degraded under overload.
	for _, spec := range specs {
		if spec.Degrade != "" && !seen[spec.Degrade] {
			return nil, fmt.Errorf("serve: model %q degrades to %q, which is not in -models", spec.Name, spec.Degrade)
		}
	}
	return specs, nil
}

// buildRoutes derives the altitude routing table from the hosted models:
// the bounded entries sorted by ascending ceiling, plus the overflow target
// for altitudes above every band — the first unbounded model in
// registration order when one exists, else the highest-ceiling bounded
// model (a 10km request is better served by the high-band model than by
// whatever happens to be the default).
func buildRoutes(order []*hosted) (routes []*hosted, overflow *hosted) {
	for _, h := range order {
		if h.maxAlt > 0 {
			routes = append(routes, h)
		} else if overflow == nil {
			overflow = h
		}
	}
	if len(routes) == 0 {
		// No bounded band ⇒ altitude routing is unconfigured; everything
		// falls through to the default model.
		return nil, nil
	}
	sort.SliceStable(routes, func(i, j int) bool { return routes[i].maxAlt < routes[j].maxAlt })
	if overflow == nil {
		overflow = routes[len(routes)-1]
	}
	return routes, overflow
}
