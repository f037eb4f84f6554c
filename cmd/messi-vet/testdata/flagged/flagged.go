// Package flagged holds one messi-vet finding in a package file, one in
// an in-package test file and one in an external test package.
package flagged

import "fmt"

func wrap(err error) error {
	return fmt.Errorf("load: %v", err)
}
