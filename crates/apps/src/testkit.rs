//! Test-support fixtures shared by downstream crates' test suites.
//!
//! Hidden from docs: these are not part of the simulation surface, just
//! reusable scaffolding so e.g. the fleet engine's unit tests and the
//! release-gated identity oracles exercise the same minimal apps instead
//! of carrying divergent copies.

use dmi_gui::{
    AppError, Behavior, CommandBinding, GuiApp, UiTree, Widget, WidgetBuilder, WidgetId,
};
use dmi_uia::ControlType as CT;

/// A minimal application with **no pristine fork** (`GuiApp::fork` stays
/// `None`): one window, one popup menu with `items` no-op entries. Fleet
/// entries built on it must transparently ride the sequential fallback
/// engine.
pub struct UnforkableApp {
    tree: UiTree,
    items: usize,
}

impl UnforkableApp {
    /// Builds the app with `items` menu entries (`Item 0`, `Item 1`, …).
    pub fn new(items: usize) -> UnforkableApp {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Unforkable", CT::Window));
        let menu = t.add(
            main,
            WidgetBuilder::new("Menu", CT::SplitButton)
                .popup()
                .on_click(Behavior::OpenMenu)
                .build(),
        );
        for i in 0..items {
            t.add(
                menu,
                WidgetBuilder::new(format!("Item {i}"), CT::ListItem)
                    .on_click(Behavior::CommandAndDismiss(CommandBinding::new("noop")))
                    .build(),
            );
        }
        UnforkableApp { tree: t, items }
    }
}

impl GuiApp for UnforkableApp {
    fn name(&self) -> &str {
        "Unforkable"
    }
    fn tree(&self) -> &UiTree {
        &self.tree
    }
    fn tree_mut(&mut self) -> &mut UiTree {
        &mut self.tree
    }
    fn dispatch(&mut self, _src: WidgetId, _b: &CommandBinding) -> Result<(), AppError> {
        Ok(())
    }
    fn reset(&mut self) {
        *self = UnforkableApp::new(self.items);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A forkable application whose **forked instances panic** on their nth
/// dispatched command — a worker shard dying mid-task. Built with
/// [`PanickyApp::new`], the original (and therefore any sequential
/// reference rip) never panics, so fleet fail-soft tests can compare a
/// healthy baseline against the contained failure; built with
/// [`PanickyApp::everywhere`], the original panics too — a rip that dies
/// on whatever thread runs it. Structure: one window, one popup menu with
/// `items` command entries.
pub struct PanickyApp {
    tree: UiTree,
    items: usize,
    panic_at: u32,
    is_fork: bool,
    /// Whether the unforked original panics as well.
    everywhere: bool,
    dispatches: u32,
}

impl PanickyApp {
    /// Builds the app with `items` menu entries; forks panic on dispatch
    /// number `panic_at` (1-based). `panic_at` larger than the rip's
    /// click count makes the app behave like a healthy fixture.
    pub fn new(items: usize, panic_at: u32) -> PanickyApp {
        let mut t = UiTree::new();
        let main = t.add_root(Widget::new("Panicky", CT::Window));
        let menu = t.add(
            main,
            WidgetBuilder::new("Menu", CT::SplitButton)
                .popup()
                .on_click(Behavior::OpenMenu)
                .build(),
        );
        for i in 0..items {
            t.add(
                menu,
                WidgetBuilder::new(format!("Item {i}"), CT::ListItem)
                    .on_click(Behavior::CommandAndDismiss(CommandBinding::new(format!("noop-{i}"))))
                    .build(),
            );
        }
        PanickyApp { tree: t, items, panic_at, is_fork: false, everywhere: false, dispatches: 0 }
    }

    /// Like [`PanickyApp::new`], but every instance — the unforked
    /// original included — panics on dispatch number `panic_at`.
    pub fn everywhere(items: usize, panic_at: u32) -> PanickyApp {
        PanickyApp { everywhere: true, ..PanickyApp::new(items, panic_at) }
    }
}

impl GuiApp for PanickyApp {
    fn name(&self) -> &str {
        "Panicky"
    }
    fn tree(&self) -> &UiTree {
        &self.tree
    }
    fn tree_mut(&mut self) -> &mut UiTree {
        &mut self.tree
    }
    fn dispatch(&mut self, _src: WidgetId, _b: &CommandBinding) -> Result<(), AppError> {
        self.dispatches += 1;
        if (self.is_fork || self.everywhere) && self.dispatches == self.panic_at {
            panic!("injected fault: fork dispatch #{} dies mid-click", self.panic_at);
        }
        Ok(())
    }
    fn reset(&mut self) {
        let dispatches = self.dispatches;
        let is_fork = self.is_fork;
        let everywhere = self.everywhere;
        *self = PanickyApp::new(self.items, self.panic_at);
        self.dispatches = dispatches;
        self.is_fork = is_fork;
        self.everywhere = everywhere;
    }
    fn fork(&self) -> Option<Box<dyn GuiApp>> {
        let mut f = PanickyApp::new(self.items, self.panic_at);
        f.is_fork = true;
        f.everywhere = self.everywhere;
        Some(Box::new(f))
    }
    fn pristine_token(&self) -> Option<u64> {
        // The launch image really is restored by reset; panicking is a
        // crash fault, not a pristineness lie.
        Some(0x9a71_c355_0f2d_4b01 ^ self.items as u64 ^ ((self.panic_at as u64) << 32))
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
