// Design-time endpoints: the paper's lifecycle services — the
// Requirements Elicitor's exploration of the ontology, the requirement
// lifecycle (add/change/remove with automatic interpretation,
// integration and validation), access to the unified and partial
// design solutions in their logical XML formats, quality estimates, the
// Design Deployer, the ETL run and the flow exporters. Payloads are
// xRQ/xMD/xLM XML for designs and JSON for everything else. None of
// them is on the query path (server.go).
package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"quarry/internal/core"
	"quarry/internal/export"
	"quarry/internal/xlm"
	"quarry/internal/xmd"
	"quarry/internal/xrq"
)

// mutating gates a design- or warehouse-mutating handler behind the
// read-only flag.
func (s *Server) mutating(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.readOnly {
			writeErr(w, http.StatusForbidden, fmt.Errorf("this node is a read replica; send writes to the primary"))
			return
		}
		h(w, r)
	}
}

func (s *Server) handleGraph(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.p.Elicitor().Graph())
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing query parameter q"))
		return
	}
	hits := s.p.Elicitor().Search(q)
	if hits == nil {
		hits = []string{}
	}
	writeJSON(w, http.StatusOK, hits)
}

func (s *Server) handleFoci(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.p.Elicitor().SuggestFoci())
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	focus := r.URL.Query().Get("focus")
	if focus == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing query parameter focus"))
		return
	}
	sg, err := s.p.Elicitor().Suggest(focus)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, sg)
}

type requirementSummary struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	Dimensions int    `json:"dimensions"`
	Measures   int    `json:"measures"`
	Slicers    int    `json:"slicers"`
}

func (s *Server) handleListRequirements(w http.ResponseWriter, _ *http.Request) {
	out := []requirementSummary{}
	for _, r := range s.p.Requirements() {
		out = append(out, requirementSummary{
			ID: r.ID, Name: r.Name,
			Dimensions: len(r.Dimensions), Measures: len(r.Measures), Slicers: len(r.Slicers),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// changeResponse is the JSON body returned by lifecycle mutations.
type changeResponse struct {
	RequirementID string  `json:"requirement_id"`
	Rederived     bool    `json:"rederived"`
	MDReused      int     `json:"md_matched_elements,omitempty"`
	ETLReused     int     `json:"etl_reused,omitempty"`
	ETLAdded      int     `json:"etl_added,omitempty"`
	ETLCostAfter  float64 `json:"etl_cost_after,omitempty"`
}

func changeBody(rep *core.ChangeReport) changeResponse {
	out := changeResponse{RequirementID: rep.RequirementID, Rederived: rep.Rederived}
	if rep.MD != nil {
		out.MDReused = len(rep.MD.MatchedFacts) + len(rep.MD.MatchedDimensions)
	}
	if rep.ETL != nil {
		out.ETLReused = rep.ETL.Reused
		out.ETLAdded = rep.ETL.Added
		out.ETLCostAfter = rep.ETL.CostAfter
	}
	return out
}

func (s *Server) readRequirement(w http.ResponseWriter, r *http.Request) (*xrq.Requirement, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	req, err := xrq.Unmarshal(string(body))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	return req, true
}

func (s *Server) handleAddRequirement(w http.ResponseWriter, r *http.Request) {
	req, ok := s.readRequirement(w, r)
	if !ok {
		return
	}
	rep, err := s.p.AddRequirement(req)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if strings.Contains(err.Error(), "already registered") {
			status = http.StatusConflict
		}
		writeChangeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, changeBody(rep))
}

func (s *Server) handleGetRequirement(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, req := range s.p.Requirements() {
		if req.ID == id {
			text, err := xrq.Marshal(req)
			writeXML(w, text, err)
			return
		}
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("requirement %q not registered", id))
}

func (s *Server) handleChangeRequirement(w http.ResponseWriter, r *http.Request) {
	req, ok := s.readRequirement(w, r)
	if !ok {
		return
	}
	if req.ID != r.PathValue("id") {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("body id %q does not match path id %q", req.ID, r.PathValue("id")))
		return
	}
	rep, err := s.p.ChangeRequirement(req)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if strings.Contains(err.Error(), "not registered") {
			status = http.StatusNotFound
		}
		writeChangeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, changeBody(rep))
}

func (s *Server) handleRemoveRequirement(w http.ResponseWriter, r *http.Request) {
	rep, err := s.p.RemoveRequirement(r.PathValue("id"))
	if err != nil {
		writeChangeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, changeBody(rep))
}

// writeChangeErr answers a lifecycle change that failed: with 500 when
// the platform could not write its requirement list (the change was
// not applied, and a retry may succeed), else with status.
func writeChangeErr(w http.ResponseWriter, status int, err error) {
	if errors.Is(err, core.ErrStore) {
		status = http.StatusInternalServerError
	}
	writeErr(w, status, err)
}

func (s *Server) unified(w http.ResponseWriter) (*xmd.Schema, *xlm.Design, bool) {
	md, etl := s.p.Unified()
	if md == nil || etl == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no unified design; add requirements first"))
		return nil, nil, false
	}
	return md, etl, true
}

func (s *Server) handleUnifiedMD(w http.ResponseWriter, _ *http.Request) {
	md, _, ok := s.unified(w)
	if !ok {
		return
	}
	text, err := xmd.Marshal(md)
	writeXML(w, text, err)
}

func (s *Server) handleUnifiedETL(w http.ResponseWriter, _ *http.Request) {
	_, etl, ok := s.unified(w)
	if !ok {
		return
	}
	text, err := xlm.Marshal(etl)
	writeXML(w, text, err)
}

func (s *Server) handlePartialMD(w http.ResponseWriter, r *http.Request) {
	pd, ok := s.p.Partial(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("requirement %q not registered", r.PathValue("id")))
		return
	}
	text, err := xmd.Marshal(pd.MD)
	writeXML(w, text, err)
}

func (s *Server) handlePartialETL(w http.ResponseWriter, r *http.Request) {
	pd, ok := s.p.Partial(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("requirement %q not registered", r.PathValue("id")))
		return
	}
	text, err := xlm.Marshal(pd.ETL)
	writeXML(w, text, err)
}

func (s *Server) handleQuality(w http.ResponseWriter, _ *http.Request) {
	cost, err := s.p.EstimatedETLCost()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	sat := s.p.CheckSatisfiability()
	body := map[string]any{
		"etl_estimated_cost": cost,
		"satisfiable":        sat == nil,
	}
	if sat != nil {
		body["satisfiability_error"] = sat.Error()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	database := r.URL.Query().Get("database")
	if database == "" {
		database = "quarry_dw"
	}
	dep, err := s.p.Deploy(database)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, dep)
}

type runResponse struct {
	Loaded        map[string]int64 `json:"loaded"`
	RowsProcessed int64            `json:"rows_processed"`
	ElapsedMicros int64            `json:"elapsed_us"`
	Operations    int              `json:"operations"`
	// OperationsDetail is where the run's time went: one entry per
	// operation, in topological order (engine.Result.Stats).
	OperationsDetail []operationDetail `json:"operations_detail"`
}

// operationDetail is one operation of a run: its rows and its busy
// time — the time it spent computing batches, waits on its inputs
// excluded.
type operationDetail struct {
	Node    string  `json:"node"`
	Type    string  `json:"type"`
	RowsIn  int64   `json:"rows_in"`
	RowsOut int64   `json:"rows_out"`
	BusyMs  float64 `json:"busy_ms"`
}

func (s *Server) handleRun(w http.ResponseWriter, _ *http.Request) {
	res, err := s.p.Run()
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.WarehouseChanged()
	detail := make([]operationDetail, len(res.Stats))
	for i, st := range res.Stats {
		detail[i] = operationDetail{Node: st.Node, Type: string(st.Type), RowsIn: st.RowsIn, RowsOut: st.RowsOut,
			BusyMs: float64(st.Duration.Microseconds()) / 1e3}
	}
	writeJSON(w, http.StatusOK, runResponse{
		Loaded:           res.Loaded,
		RowsProcessed:    res.RowsProcessed(),
		ElapsedMicros:    res.Elapsed.Microseconds(),
		Operations:       len(res.Stats),
		OperationsDetail: detail,
	})
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	text, err := s.p.ExportFlow(r.PathValue("notation"))
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, export.ErrUnknownNotation) {
			status = http.StatusNotFound
		}
		writeErr(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, text)
}

// writeXML answers with a marshalled design, or with the 500 its
// marshalling failed with.
func writeXML(w http.ResponseWriter, text string, err error) {
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, text)
}
