// Cartree: the paper's Car example (Figures 1-2), end to end.
//
// A Car aggregates an Engine, a Chassis and a variable number of
// Wheels — the object structure of Figure 1. This example feeds the
// MiniCC source through the actual Amplify pre-processor
// (internal/core), prints the interesting parts of the transformed
// source, and executes both versions on the simulated SMP to compare
// heap traffic and running time.
//
// Run with: go run ./examples/cartree
package main

import (
	"fmt"
	"strings"

	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/interp"
	"amplify/internal/target"
)

const carProgram = `
class Engine {
public:
    Engine(int p) {
        power = p;
        name = new char[12];
    }
    ~Engine() {
        delete[] name;
    }
    int rate() {
        return power;
    }
private:
    int power;
    char* name;
};

class Wheel {
public:
    Wheel(int s, int remaining) {
        size = s;
        if (remaining > 0) {
            next = new Wheel(s, remaining - 1);
        }
    }
    ~Wheel() {
        delete next;
    }
private:
    int size;
    Wheel* next;
};

class Chassis {
public:
    Chassis(int w) {
        weight = w;
    }
    ~Chassis() {
    }
private:
    int weight;
};

class Car {
public:
    Car(int power, int wheels) {
        engine = new Engine(power);
        chassis = new Chassis(900);
        first = new Wheel(16, wheels - 1);
        count = wheels;
    }
    ~Car() {
        delete engine;
        delete chassis;
        delete first;
    }
    int horsepower() {
        return engine->rate();
    }
private:
    Engine* engine;
    Chassis* chassis;
    Wheel* first;
    int count;
};

void factory(int cars) {
    int hp = 0;
    for (int i = 0; i < cars; i = i + 1) {
        Car* c = new Car(120 + i % 10, 4);
        hp = hp + c->horsepower();
        delete c;
    }
    print("built", cars, "cars, total hp", hp);
}

int main() {
    spawn factory(50);
    spawn factory(50);
    join;
    return 0;
}
`

func main() {
	// One parse: the plain tree runs first, because the rewrite
	// consumes it; the amplified run executes the tree the rewrite
	// hands back.
	prog := cc.MustAnalyze(cc.MustParse(carProgram))
	plain, err := interp.Run(prog, target.Config{Strategy: "serial"})
	if err != nil {
		panic(err)
	}
	transformed, tree, report, err := core.RewriteProgram(prog, core.Options{})
	if err != nil {
		panic(err)
	}
	amp, err := interp.Run(tree, target.Config{Strategy: "serial"})
	if err != nil {
		panic(err)
	}

	fmt.Println("=== Amplify transformation ===")
	fmt.Print(report.String())
	fmt.Println()
	fmt.Println("=== Transformed Car destructor and constructor (excerpt) ===")
	printExcerpt(transformed, "class Car {", "void factory")

	fmt.Println("=== Executing on the simulated 8-CPU machine ===")
	fmt.Print(plain.Output)
	if plain.Output != amp.Output {
		panic("amplified program diverged!")
	}
	fmt.Printf("\n%-22s %12s %12s\n", "", "plain", "amplified")
	fmt.Printf("%-22s %12d %12d\n", "heap allocations", plain.Alloc.Allocs, amp.Alloc.Allocs)
	fmt.Printf("%-22s %12d %12d\n", "pool hits", plain.PoolHits, amp.PoolHits)
	fmt.Printf("%-22s %12d %12d\n", "shadow array reuses", plain.ShadowReuses, amp.ShadowReuses)
	fmt.Printf("%-22s %12d %12d\n", "makespan (cycles)", plain.Makespan, amp.Makespan)
	fmt.Printf("\nspeedup from the pre-processor: %.2fx\n",
		float64(plain.Makespan)/float64(amp.Makespan))
}

// printExcerpt prints the transformed source between two markers.
func printExcerpt(src, from, to string) {
	i := strings.Index(src, from)
	j := strings.Index(src, to)
	if i < 0 || j < 0 || j < i {
		fmt.Println(src)
		return
	}
	fmt.Println(src[i:j])
}
