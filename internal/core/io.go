package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"crowdselect/internal/linalg"
)

// modelJSON is the persisted form of a Model — the crowd model the
// crowd database stores and reloads (§2, Figure 1).
type modelJSON struct {
	K            int         `json:"k"`
	V            int         `json:"v"`
	M            int         `json:"m"`
	LambdaW      [][]float64 `json:"lambda_w"`
	NuW2         [][]float64 `json:"nu_w2"`
	MuW          []float64   `json:"mu_w"`
	SigmaW       []float64   `json:"sigma_w"`
	MuC          []float64   `json:"mu_c"`
	SigmaC       []float64   `json:"sigma_c"`
	Tau2         float64     `json:"tau2"`
	LogBeta      []float64   `json:"log_beta"`
	ProjectIters int         `json:"project_iters,omitempty"`
}

// Save writes the model as JSON to w.
func (m *Model) Save(w io.Writer) error {
	mj := modelJSON{
		K: m.K, V: m.V, M: m.M,
		LambdaW:      make([][]float64, m.M),
		NuW2:         make([][]float64, m.M),
		MuW:          m.MuW,
		SigmaW:       m.SigmaW.Data,
		MuC:          m.MuC,
		SigmaC:       m.SigmaC.Data,
		Tau2:         m.Tau2,
		LogBeta:      m.LogBeta.Data,
		ProjectIters: m.ProjectIters,
	}
	for i := range m.LambdaW {
		mj.LambdaW[i] = m.LambdaW[i]
		mj.NuW2[i] = m.NuW2[i]
	}
	if err := json.NewEncoder(w).Encode(mj); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// LoadModel reads a model saved by Save, validating dimensions and
// rebuilding the derived state (covariance inverses, the β table).
func LoadModel(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if mj.K < 1 || mj.V < 1 || mj.M < 1 {
		return nil, fmt.Errorf("core: load model: bad dimensions K=%d V=%d M=%d", mj.K, mj.V, mj.M)
	}
	if len(mj.LambdaW) != mj.M || len(mj.NuW2) != mj.M {
		return nil, fmt.Errorf("core: load model: %d workers but %d/%d posteriors", mj.M, len(mj.LambdaW), len(mj.NuW2))
	}
	if len(mj.MuW) != mj.K || len(mj.MuC) != mj.K ||
		len(mj.SigmaW) != mj.K*mj.K || len(mj.SigmaC) != mj.K*mj.K ||
		len(mj.LogBeta) != mj.K*mj.V {
		return nil, fmt.Errorf("core: load model: parameter shapes disagree with K=%d V=%d", mj.K, mj.V)
	}
	if mj.Tau2 <= 0 || math.IsNaN(mj.Tau2) {
		return nil, fmt.Errorf("core: load model: tau2 = %g", mj.Tau2)
	}
	m := &Model{
		K: mj.K, V: mj.V, M: mj.M,
		LambdaW:      make([]linalg.Vector, mj.M),
		NuW2:         make([]linalg.Vector, mj.M),
		MuW:          mj.MuW,
		SigmaW:       linalg.NewMatrixFrom(mj.K, mj.K, mj.SigmaW),
		MuC:          mj.MuC,
		SigmaC:       linalg.NewMatrixFrom(mj.K, mj.K, mj.SigmaC),
		Tau2:         mj.Tau2,
		LogBeta:      linalg.NewMatrixFrom(mj.K, mj.V, mj.LogBeta),
		ProjectIters: mj.ProjectIters,
	}
	for i := range mj.LambdaW {
		if len(mj.LambdaW[i]) != mj.K || len(mj.NuW2[i]) != mj.K {
			return nil, fmt.Errorf("core: load model: worker %d posterior has wrong dimension", i)
		}
		m.LambdaW[i] = mj.LambdaW[i]
		m.NuW2[i] = mj.NuW2[i]
		for _, v := range mj.NuW2[i] {
			if v <= 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("core: load model: worker %d has variance %g", i, v)
			}
		}
	}
	if err := m.refreshDerived(); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadModelFile reads a model from path.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	defer f.Close()
	return LoadModel(bufio.NewReader(f))
}
