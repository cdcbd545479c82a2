package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"activedr/internal/timeutil"
)

func extraSample() ([]Login, []Transfer) {
	t0 := timeutil.Date(2016, time.February, 1)
	logins := []Login{
		{User: 0, TS: t0},
		{User: 2, TS: t0.Add(5 * timeutil.Hour)},
	}
	transfers := []Transfer{
		{User: 0, TS: t0, Dir: TransferIn, Bytes: 64 << 30},
		{User: 1, TS: t0.Add(timeutil.Days(3)), Dir: TransferOut, Bytes: 8 << 30},
	}
	return logins, transfers
}

func TestTransferImpactGigabytes(t *testing.T) {
	x := Transfer{Bytes: 5e9}
	if x.Impact() != 5 {
		t.Fatalf("Impact = %v, want 5", x.Impact())
	}
	if TransferIn.String() != "in" || TransferOut.String() != "out" {
		t.Fatal("direction strings wrong")
	}
}

func TestLoginRoundTrip(t *testing.T) {
	d := sampleDataset()
	logins, _ := extraSample()
	var buf bytes.Buffer
	if err := writeLogins(&buf, d.Users, logins); err != nil {
		t.Fatal(err)
	}
	got, _, err := readRows(&buf, NameIndex(d.Users), ReadOptions{}, loginSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, logins) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, logins)
	}
}

func TestTransferRoundTrip(t *testing.T) {
	d := sampleDataset()
	_, xs := extraSample()
	var buf bytes.Buffer
	if err := writeTransfers(&buf, d.Users, xs); err != nil {
		t.Fatal(err)
	}
	got, _, err := readRows(&buf, NameIndex(d.Users), ReadOptions{}, transferSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, xs) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, xs)
	}
}

func TestExtraReadersRejectMalformed(t *testing.T) {
	idx := map[string]UserID{"u000": 0}
	badLogins := []string{"1", "x\tu000", "1\tghost"}
	for _, line := range badLogins {
		if _, _, err := readRows(strings.NewReader(line+"\n"), idx, ReadOptions{}, loginSpec); err == nil {
			t.Errorf("login line %q accepted", line)
		}
	}
	badTransfers := []string{
		"1\tu000\tin",          // short
		"1\tghost\tin\t5",      // unknown user
		"1\tu000\tsideways\t5", // bad direction
		"1\tu000\tin\t-5",      // negative bytes
		"x\tu000\tin\t5",       // bad ts
	}
	for _, line := range badTransfers {
		if _, _, err := readRows(strings.NewReader(line+"\n"), idx, ReadOptions{}, transferSpec); err == nil {
			t.Errorf("transfer line %q accepted", line)
		}
	}
}

func TestDatasetOptionalExtraFiles(t *testing.T) {
	d := sampleDataset()
	logins, xs := extraSample()
	d.Logins, d.Transfers = logins, xs
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Logins, logins) || !reflect.DeepEqual(got.Transfers, xs) {
		t.Fatal("extra traces lost in round trip")
	}
	// Removing the optional files must not break loading.
	os.Remove(filepath.Join(dir, LoginsFile))
	os.Remove(filepath.Join(dir, TransfersFile))
	got2, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Logins) != 0 || len(got2.Transfers) != 0 {
		t.Fatal("phantom extra records after file removal")
	}
}

func TestValidateExtraRecords(t *testing.T) {
	d := sampleDataset()
	d.Logins = []Login{{User: 99}}
	if err := d.Validate(); err == nil {
		t.Error("login with unknown user accepted")
	}
	d = sampleDataset()
	d.Transfers = []Transfer{{User: 0, Bytes: -1}}
	if err := d.Validate(); err == nil {
		t.Error("negative transfer accepted")
	}
}
