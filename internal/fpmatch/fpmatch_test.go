package fpmatch

import (
	"errors"
	"testing"
	"testing/quick"

	"iothub/internal/sensor"
)

func TestNewDBValidation(t *testing.T) {
	if _, err := NewDB(0.4); err == nil {
		t.Error("threshold 0.4 accepted")
	}
	if _, err := NewDB(1.5); err == nil {
		t.Error("threshold 1.5 accepted")
	}
	db, err := NewDB(0)
	if err != nil {
		t.Fatalf("NewDB(0): %v", err)
	}
	if db.Len() != 0 {
		t.Error("fresh DB not empty")
	}
}

func TestEnrollValidation(t *testing.T) {
	db, err := NewDB(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Enroll("a", make([]byte, 100)); !errors.Is(err, ErrBadSignature) {
		t.Errorf("short template: %v", err)
	}
	if err := db.Enroll("", sensor.FingerTemplate(1)); err == nil {
		t.Error("empty name accepted")
	}
	if err := db.Enroll("alice", sensor.FingerTemplate(1)); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if err := db.Enroll("alice", sensor.FingerTemplate(2)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: %v", err)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d, want 1", db.Len())
	}
}

func TestIdentifyGenuineScan(t *testing.T) {
	db, err := NewDB(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"alice", "bob", "carol"} {
		if err := db.Enroll(name, sensor.FingerTemplate(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	scan := sensor.NewSignature(99, 2).AppendSample(nil, 0) // bob's finger, scan noise
	name, score, err := db.Identify(scan)
	if err != nil {
		t.Fatalf("Identify: %v", err)
	}
	if name != "bob" {
		t.Errorf("Identify = %q (score %.3f), want bob", name, score)
	}
	if score < 0.95 {
		t.Errorf("genuine score = %.3f, want >= 0.95", score)
	}
}

func TestIdentifyImpostorRejected(t *testing.T) {
	db, err := NewDB(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Enroll("alice", sensor.FingerTemplate(1)); err != nil {
		t.Fatal(err)
	}
	scan := sensor.NewSignature(7, 42).AppendSample(nil, 0) // un-enrolled finger
	_, score, err := db.Identify(scan)
	if !errors.Is(err, ErrNoMatch) {
		t.Errorf("impostor err = %v (score %.3f), want ErrNoMatch", err, score)
	}
	if score > 0.6 {
		t.Errorf("impostor score = %.3f, want near 0.5", score)
	}
}

func TestIdentifyBadScanSize(t *testing.T) {
	db, err := NewDB(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Identify(make([]byte, 10)); !errors.Is(err, ErrBadSignature) {
		t.Errorf("bad size: %v", err)
	}
}

func TestVerify(t *testing.T) {
	db, err := NewDB(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Enroll("alice", sensor.FingerTemplate(1)); err != nil {
		t.Fatal(err)
	}
	ok, err := db.Verify("alice", sensor.NewSignature(5, 1).AppendSample(nil, 0))
	if err != nil || !ok {
		t.Errorf("genuine Verify = %v, %v", ok, err)
	}
	ok, err = db.Verify("alice", sensor.NewSignature(5, 9).AppendSample(nil, 0))
	if err != nil || ok {
		t.Errorf("impostor Verify = %v, %v", ok, err)
	}
	if _, err := db.Verify("mallory", sensor.FingerTemplate(1)); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown name: %v", err)
	}
}

func TestSimilaritySelfIsOne(t *testing.T) {
	tmpl := sensor.FingerTemplate(3)
	s, err := Similarity(tmpl, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("self similarity = %v", s)
	}
	if _, err := Similarity(tmpl, tmpl[:10]); !errors.Is(err, ErrBadSignature) {
		t.Errorf("size mismatch: %v", err)
	}
}

// Property: similarity is symmetric and within [0, 1].
func TestPropertySimilarity(t *testing.T) {
	f := func(fingerA, fingerB uint8) bool {
		a := sensor.FingerTemplate(int(fingerA))
		b := sensor.FingerTemplate(int(fingerB))
		s1, err1 := Similarity(a, b)
		s2, err2 := Similarity(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if s1 != s2 || s1 < 0 || s1 > 1 {
			return false
		}
		return fingerA != fingerB || s1 == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
