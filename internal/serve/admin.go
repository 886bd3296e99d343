package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// ModelBuilder turns a parsed -models style spec into a runnable
// ModelEntry: build (or load) the network, quantize if the spec says int8,
// and wrap it in an engine pool. The admin endpoints call it OFF the
// request path of live traffic — building a 608px int8 model (weights +
// calibration) takes long enough that doing it before the atomic table
// flip is the entire point of the swap protocol. Implementations must be
// safe for concurrent use with serving (they only construct new state).
type ModelBuilder func(ModelSpec) (ModelEntry, error)

// SetModelBuilder installs the hook the admin endpoints use to construct
// pools from specs. Without one, POST/PUT /admin/models fail with 501 —
// DELETE still works, since removal needs no construction.
func (s *Server) SetModelBuilder(b ModelBuilder) {
	s.builderMu.Lock()
	s.builder = b
	s.builderMu.Unlock()
}

func (s *Server) modelBuilder() ModelBuilder {
	s.builderMu.RLock()
	defer s.builderMu.RUnlock()
	return s.builder
}

// adminModelJSON is one row of GET /admin/models.
type adminModelJSON struct {
	Name        string  `json:"name"`
	Generation  uint64  `json:"generation"`
	Precision   string  `json:"precision"`
	Workers     int     `json:"workers"`
	MaxAltitude float64 `json:"max_altitude_m,omitempty"`
	Default     bool    `json:"default"`
}

// adminChangeJSON is the body of a successful POST/PUT/DELETE.
type adminChangeJSON struct {
	Name          string `json:"name"`
	Generation    uint64 `json:"generation,omitempty"`     // the pool now serving
	OldGeneration uint64 `json:"old_generation,omitempty"` // the pool retired (swap/remove)
}

// adminSpecJSON is the request body of POST and PUT /admin/models.
type adminSpecJSON struct {
	// Spec is one -models grammar entry:
	// name=model:size:precision[:maxalt][:degrade=sibling]. On PUT the
	// "name=" prefix may be omitted — the path names the route being
	// swapped.
	Spec string `json:"spec"`
}

// AdminHandler returns the lifecycle control surface, kept SEPARATE from
// ServeHTTP so operators can bind it to a loopback/ops listener while the
// data plane faces the world:
//
//	GET    /admin/models        — list hosted models with generations
//	POST   /admin/models        — add a model (body: {"spec": "name=model:size:precision[:maxalt]"})
//	PUT    /admin/models/{name} — atomically swap the named model's pool
//	DELETE /admin/models/{name} — drain and remove the named model
//
// POST and PUT build the new pool via the installed ModelBuilder before
// touching the routing table; PUT and DELETE return only after the retired
// pool has fully drained (every admitted request answered).
func (s *Server) AdminHandler() http.Handler {
	if s.adm == nil {
		s.adm = http.NewServeMux()
		s.adm.HandleFunc("GET /admin/models", s.handleAdminList)
		s.adm.HandleFunc("POST /admin/models", s.handleAdminAdd)
		s.adm.HandleFunc("PUT /admin/models/{name}", s.handleAdminSwap)
		s.adm.HandleFunc("DELETE /admin/models/{name}", s.handleAdminRemove)
	}
	return s.adm
}

func (s *Server) handleAdminList(w http.ResponseWriter, r *http.Request) {
	t := s.table.Load()
	out := make([]adminModelJSON, 0, len(t.order))
	for _, h := range t.order {
		out = append(out, adminModelJSON{
			Name:        h.name,
			Generation:  h.gen,
			Precision:   h.cfg.Precision,
			Workers:     h.eng.Workers(),
			MaxAltitude: h.maxAlt,
			Default:     h == t.def,
		})
	}
	WriteJSON(w, http.StatusOK, map[string]any{"models": out})
}

// decodeSpec reads and parses the single-spec request body shared by add
// and swap. forName, when non-empty, is the path's route name: a bare spec
// ("dronet:96:int8") is qualified with it, and a qualified spec must match.
func decodeSpec(r *http.Request, forName string) (ModelSpec, error) {
	var body adminSpecJSON
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20)).Decode(&body); err != nil {
		return ModelSpec{}, fmt.Errorf("bad request body: %w", err)
	}
	raw := strings.TrimSpace(body.Spec)
	if raw == "" {
		return ModelSpec{}, errors.New("missing \"spec\"")
	}
	if forName != "" && !strings.Contains(raw, "=") {
		raw = forName + "=" + raw
	}
	specs, err := ParseModelSpecs(raw)
	if err != nil {
		return ModelSpec{}, err
	}
	if len(specs) != 1 {
		return ModelSpec{}, fmt.Errorf("want exactly one spec, got %d", len(specs))
	}
	if forName != "" && specs[0].Name != forName {
		return ModelSpec{}, fmt.Errorf("spec names %q but the path names %q", specs[0].Name, forName)
	}
	return specs[0], nil
}

// build runs the installed ModelBuilder, mapping its absence to 501.
func (s *Server) build(spec ModelSpec) (ModelEntry, int, error) {
	b := s.modelBuilder()
	if b == nil {
		return ModelEntry{}, http.StatusNotImplemented, errors.New("no model builder installed (SetModelBuilder)")
	}
	entry, err := b(spec)
	if err != nil {
		return ModelEntry{}, http.StatusInternalServerError, fmt.Errorf("build model: %w", err)
	}
	return entry, 0, nil
}

// lifecycleStatus maps the registry sentinels onto admin HTTP statuses.
func lifecycleStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrDuplicateModel), errors.Is(err, ErrLastModel):
		return http.StatusConflict
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleAdminAdd(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r, "")
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	entry, code, err := s.build(spec)
	if err != nil {
		WriteError(w, code, "%v", err)
		return
	}
	gen, err := s.AddModel(entry)
	if err != nil {
		WriteError(w, lifecycleStatus(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusCreated, adminChangeJSON{Name: entry.Name, Generation: gen})
}

func (s *Server) handleAdminSwap(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	spec, err := decodeSpec(r, name)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	entry, code, err := s.build(spec)
	if err != nil {
		WriteError(w, code, "%v", err)
		return
	}
	oldGen, newGen, err := s.SwapModel(entry)
	if err != nil {
		WriteError(w, lifecycleStatus(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, adminChangeJSON{Name: name, Generation: newGen, OldGeneration: oldGen})
}

func (s *Server) handleAdminRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	t := s.table.Load()
	var oldGen uint64
	if h, ok := t.byName[name]; ok {
		oldGen = h.gen
	}
	if err := s.RemoveModel(name); err != nil {
		WriteError(w, lifecycleStatus(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, adminChangeJSON{Name: name, OldGeneration: oldGen})
}
