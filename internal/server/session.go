package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path"
	"sort"
	"time"

	"comparenb/internal/durable"
	"comparenb/internal/faultinject"
	"comparenb/internal/table"
)

// session is one loaded relation: the parsed table plus what the CSV
// loader decided about it. Relations load once and are shared (read-only)
// by every job; the *table.Relation pointer doubles as the cube cache's
// relation identity, so DropRelation can evict exactly this session's
// cubes.
type session struct {
	name   string
	rel    *table.Relation
	report *table.CSVReport
	source string
	loaded time.Time
}

type sessionView struct {
	Name        string   `json:"name"`
	Rows        int      `json:"rows"`
	Categorical []string `json:"categorical"`
	Numeric     []string `json:"numeric"`
	Dropped     []string `json:"dropped,omitempty"`
	Source      string   `json:"source"`
	LoadedMS    int64    `json:"loaded_unix_ms"`
}

func (sess *session) view() sessionView {
	return sessionView{
		Name:        sess.name,
		Rows:        sess.report.Rows,
		Categorical: sess.report.Categorical,
		Numeric:     sess.report.Numeric,
		Dropped:     sess.report.Dropped,
		Source:      sess.source,
		LoadedMS:    sess.loaded.UnixMilli(),
	}
}

// validName vets relation names: they appear in URLs, cache diagnostics
// and metrics, so keep them boring.
func validName(name string) error {
	if name == "" {
		return errors.New("relation name must not be empty")
	}
	if len(name) > 64 {
		return fmt.Errorf("relation name too long (%d bytes, max 64)", len(name))
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("relation name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	return nil
}

// handleLoadRelation is POST /v1/relations: the body is the CSV
// (bounded by MaxUploadBytes), named by the ?name= query parameter. The
// daemon reads no file at a client's request; relations on its own
// filesystem load only through LoadRelationFile.
//
// Loading is admission-controlled like jobs (503 while draining, 507
// when the registry is full) and duplicate names are refused with 409 —
// a relation's identity must stay stable while jobs and cached cubes
// reference it.
func (s *Server) handleLoadRelation(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, ready, full := s.draining, s.ready, len(s.sessions) >= s.opts.MaxRelations
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !ready {
		httpError(w, http.StatusServiceUnavailable, "server is recovering; retry when /readyz reports ready")
		return
	}
	if full {
		httpError(w, http.StatusInsufficientStorage,
			fmt.Sprintf("session registry full (%d relations); DELETE one first", s.opts.MaxRelations))
		return
	}
	name := r.URL.Query().Get("name")
	if err := validName(name); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	faultinject.Fire(faultinject.ServerSessionLoad)
	// The whole CSV is read into memory first: the bytes feed the parser
	// and, in durable mode, the state dir's relations/ copy, so a
	// recovering server reloads exactly what was uploaded.
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	csv, err := readUpload(body, r.ContentLength, s.opts.MaxUploadBytes)
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "reading upload: "+err.Error())
		return
	}

	sess, err := s.parseSession(name, "upload", csv)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, table.ErrTooManyRows) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "loading relation: "+err.Error())
		return
	}
	if code, err := s.registerSession(sess, csv); err != nil {
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, sess.view())
}

// readUpload reads an upload body into one buffer sized from its
// declared length when that is within limit; a body that declares none
// (chunked) or too much is read as it comes. body is limit's
// MaxBytesReader, so a body past the limit fails with
// *http.MaxBytesError whatever it declared.
func readUpload(body io.Reader, declared, limit int64) ([]byte, error) {
	if declared <= 0 || declared > limit {
		return io.ReadAll(body)
	}
	buf := bytes.NewBuffer(make([]byte, 0, declared+bytes.MinRead))
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

// registerSession claims the relation name in the registry, then (in
// durable mode) persists the CSV and journals the load. The claim is
// rolled back if persistence fails, so a registered relation is always a
// recoverable one. Claiming first means a crash between claim and
// journal can admit jobs against a relation the journal never saw —
// replay quarantines those with "relation not recoverable" rather than
// guessing.
func (s *Server) registerSession(sess *session, csv []byte) (int, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return http.StatusServiceUnavailable, errors.New("server is draining")
	}
	if _, dup := s.sessions[sess.name]; dup {
		s.mu.Unlock()
		return http.StatusConflict, fmt.Errorf("relation %q already loaded; DELETE it first", sess.name)
	}
	if len(s.sessions) >= s.opts.MaxRelations {
		s.mu.Unlock()
		return http.StatusInsufficientStorage,
			fmt.Errorf("session registry full (%d relations); DELETE one first", s.opts.MaxRelations)
	}
	s.sessions[sess.name] = sess
	s.gSessions.Set(int64(len(s.sessions)))
	s.mu.Unlock()

	if err := s.persistSession(sess.name, csv); err != nil {
		s.mu.Lock()
		delete(s.sessions, sess.name)
		s.gSessions.Set(int64(len(s.sessions)))
		s.mu.Unlock()
		return http.StatusInternalServerError, fmt.Errorf("persisting relation: %w", err)
	}
	s.cSessLoad.Inc()
	return 0, nil
}

// persistSession stores the relation's CSV bytes and journals the load;
// a no-op in memory-only mode.
func (s *Server) persistSession(name string, csv []byte) error {
	if s.journal == nil {
		return nil
	}
	file := path.Join(durable.RelationsDir, name+".csv")
	// No digest: session-load records carry none, since recovery
	// re-parses the CSV.
	if err := s.store.Put(file, csv); err != nil {
		return err
	}
	return s.journalAppendStrict(durable.Record{Type: durable.RecSessionLoad, Name: name, File: file})
}

// LoadRelationFile loads a CSV from the daemon's own filesystem into the
// session registry: an operator's path (cmd/comparenbd's -load preload
// flag, and tests), never a client's. Unlike the HTTP handler it is
// allowed before Run's replay finishes: preloads run between New and
// Run, and replay skips names they already claimed.
func (s *Server) LoadRelationFile(name, file string) error {
	if err := validName(name); err != nil {
		return err
	}
	faultinject.Fire(faultinject.ServerSessionLoad)
	csv, err := os.ReadFile(file)
	if err != nil {
		return fmt.Errorf("loading relation %q: %w", name, err)
	}
	sess, err := s.parseSession(name, "path:"+file, csv)
	if err != nil {
		return fmt.Errorf("loading relation %q: %w", name, err)
	}
	_, err = s.registerSession(sess, csv)
	return err
}

// parseSession is the one path from CSV bytes to a session, shared by
// uploads, preloads and recovery: the loader's default typing under the
// daemon's row cap.
func (s *Server) parseSession(name, source string, csv []byte) (*session, error) {
	rel, rep, err := table.FromCSVBytes(csv, table.CSVOptions{Name: name, MaxRows: s.opts.MaxRows})
	if err != nil {
		return nil, err
	}
	return &session{name: name, rel: rel, report: rep, source: source, loaded: time.Now()}, nil
}

// handleListRelations is GET /v1/relations: every session, name-sorted.
func (s *Server) handleListRelations(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]sessionView, 0, len(s.sessions))
	for _, sess := range s.sessions {
		views = append(views, sess.view())
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	writeJSON(w, http.StatusOK, views)
}

// handleDropRelation is DELETE /v1/relations/{name}: removes the session
// and evicts its cubes from the shared cache. Running jobs holding the
// relation pointer finish unaffected — the relation is immutable and the
// cache rebuilds on demand — but new jobs can no longer name it.
func (s *Server) handleDropRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	sess := s.sessions[name]
	if sess != nil {
		delete(s.sessions, name)
		s.gSessions.Set(int64(len(s.sessions)))
	}
	s.mu.Unlock()
	if sess == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("relation %q not loaded", name))
		return
	}
	if s.journal != nil {
		s.journalAppend(durable.Record{Type: durable.RecSessionDrop, Name: name})
		// Best-effort: the journal record alone already stops recovery
		// from reloading the relation.
		_ = s.store.Remove(path.Join(durable.RelationsDir, name+".csv"))
	}
	dropped := s.cache.DropRelation(sess.rel)
	s.cSessDrop.Inc()
	writeJSON(w, http.StatusOK, dropResponse{Name: name, CacheEntriesDropped: dropped})
}

type dropResponse struct {
	Name                string `json:"name"`
	CacheEntriesDropped int    `json:"cache_entries_dropped"`
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // client disconnect; nowhere to report
}

// decodeJSON parses a bounded JSON request body, refusing unknown fields
// so a misspelt job knob fails loudly instead of silently taking its
// default.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}
