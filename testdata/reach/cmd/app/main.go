// Command app is the fixture's live code.
package main

import (
	"fmt"

	"fixture/api"
	"fixture/internal/store"
)

func main() {
	s := store.New(store.Config{Size: 2})
	fmt.Println(s.Get(), store.Live(), store.Kept(), api.Configure(store.PublicConfig{}))
}
