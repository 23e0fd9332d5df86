//! Authentication: social-platform tokens become CDN sessions.
//!
//! "Access to allocation servers can only take place after users have been
//! authenticated through their social network" (Section V-B). The
//! middleware never stores passwords — it validates platform bearer tokens
//! and mints short-lived CDN sessions bound to the platform user.

use std::collections::HashMap;
use std::rc::Rc;

use scdn_social::platform::{AuthToken, PlatformError, SocialPlatform, UserId};

/// A CDN session minted from a validated platform token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Session {
    /// Opaque session id.
    pub id: u64,
    /// The authenticated platform user.
    pub user: UserId,
    /// Logical expiry counter (sessions expire after `ttl_ops` operations —
    /// the simulation has no wall clock).
    pub remaining_ops: u32,
}

/// Middleware errors.
#[derive(Debug, PartialEq, Eq)]
pub enum MiddlewareError {
    /// The platform rejected the token.
    Platform(PlatformError),
    /// Unknown or expired session.
    SessionInvalid,
}

impl std::fmt::Display for MiddlewareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MiddlewareError::Platform(e) => write!(f, "platform: {e}"),
            MiddlewareError::SessionInvalid => write!(f, "invalid or expired session"),
        }
    }
}

impl std::error::Error for MiddlewareError {}

impl From<PlatformError> for MiddlewareError {
    fn from(e: PlatformError) -> Self {
        MiddlewareError::Platform(e)
    }
}

/// The social middleware: token validation and session management.
pub struct Middleware {
    platform: Rc<SocialPlatform>,
    sessions: HashMap<u64, Session>,
    counter: u64,
    /// Operations allowed per session before re-authentication.
    pub ttl_ops: u32,
}

impl Middleware {
    /// Middleware over a platform, with the default session TTL.
    pub fn new(platform: Rc<SocialPlatform>) -> Middleware {
        Middleware {
            platform,
            sessions: HashMap::new(),
            counter: 0,
            ttl_ops: 1000,
        }
    }

    /// Exchange a platform token for a CDN session.
    pub fn establish_session(&mut self, token: &AuthToken) -> Result<Session, MiddlewareError> {
        let user = self.platform.validate_token(token)?;
        self.counter += 1;
        let session = Session {
            id: self.counter,
            user,
            remaining_ops: self.ttl_ops,
        };
        self.sessions.insert(session.id, session.clone());
        Ok(session)
    }

    /// Validate a session and consume one operation from its budget.
    /// Returns the authenticated user.
    pub fn authorize_op(&mut self, session_id: u64) -> Result<UserId, MiddlewareError> {
        let s = self
            .sessions
            .get_mut(&session_id)
            .ok_or(MiddlewareError::SessionInvalid)?;
        if s.remaining_ops == 0 {
            self.sessions.remove(&session_id);
            return Err(MiddlewareError::SessionInvalid);
        }
        s.remaining_ops -= 1;
        Ok(s.user)
    }

    /// The session `session_id` names, while the middleware holds it (an
    /// exhausted session is dropped on its next use).
    pub fn session(&self, session_id: u64) -> Option<&Session> {
        self.sessions.get(&session_id)
    }

    /// Non-consuming preview of [`authorize_op`](Self::authorize_op):
    /// reports the same decision the next `authorize_op` call would make,
    /// without consuming an operation or expiring the session.
    /// `authorize_op` stays the authoritative, budget-consuming check.
    pub fn peek_op(&self, session_id: u64) -> Result<UserId, MiddlewareError> {
        let s = self
            .sessions
            .get(&session_id)
            .ok_or(MiddlewareError::SessionInvalid)?;
        if s.remaining_ops == 0 {
            return Err(MiddlewareError::SessionInvalid);
        }
        Ok(s.user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Rc<SocialPlatform> {
        let p = SocialPlatform::new();
        p.register("alice", "Alice", "pw", None).expect("register");
        Rc::new(p)
    }

    #[test]
    fn token_to_session_flow() {
        let p = platform();
        let mut mw = Middleware::new(p.clone());
        let tok = p.login("alice", "pw").expect("login");
        let session = mw.establish_session(&tok).expect("session");
        let user = mw.authorize_op(session.id).expect("authorized");
        assert_eq!(p.user(user).expect("user").login, "alice");
    }

    #[test]
    fn bad_token_rejected() {
        let p = platform();
        let mut mw = Middleware::new(p.clone());
        let err = mw
            .establish_session(&AuthToken("forged".into()))
            .unwrap_err();
        assert_eq!(err, MiddlewareError::Platform(PlatformError::InvalidToken));
    }

    #[test]
    fn revoked_platform_token_cannot_mint_sessions() {
        let p = platform();
        let mut mw = Middleware::new(p.clone());
        let tok = p.login("alice", "pw").expect("login");
        p.revoke_token(&tok);
        assert!(mw.establish_session(&tok).is_err());
    }

    #[test]
    fn sessions_expire_after_ttl_ops() {
        let p = platform();
        let mut mw = Middleware::new(p.clone());
        mw.ttl_ops = 2;
        let tok = p.login("alice", "pw").expect("login");
        let s = mw.establish_session(&tok).expect("session");
        assert!(mw.authorize_op(s.id).is_ok());
        assert!(mw.authorize_op(s.id).is_ok());
        assert_eq!(
            mw.authorize_op(s.id).unwrap_err(),
            MiddlewareError::SessionInvalid
        );
        assert_eq!(mw.sessions.len(), 0);
    }

    #[test]
    fn peek_op_previews_without_consuming() {
        let p = platform();
        let mut mw = Middleware::new(p.clone());
        mw.ttl_ops = 2;
        let tok = p.login("alice", "pw").expect("login");
        let s = mw.establish_session(&tok).expect("session");
        // Any number of peeks consume nothing.
        for _ in 0..10 {
            assert!(mw.peek_op(s.id).is_ok());
        }
        assert!(mw.authorize_op(s.id).is_ok());
        assert!(mw.authorize_op(s.id).is_ok());
        // Budget exhausted: peek agrees with authorize, but unlike
        // authorize it does not remove the session.
        assert_eq!(
            mw.peek_op(s.id).unwrap_err(),
            MiddlewareError::SessionInvalid
        );
        assert_eq!(mw.sessions.len(), 1);
        assert_eq!(
            mw.authorize_op(s.id).unwrap_err(),
            MiddlewareError::SessionInvalid
        );
        assert_eq!(mw.sessions.len(), 0);
        assert_eq!(
            mw.peek_op(404).unwrap_err(),
            MiddlewareError::SessionInvalid
        );
    }

    #[test]
    fn unknown_session_invalid() {
        let p = platform();
        let mut mw = Middleware::new(p.clone());
        assert_eq!(
            mw.authorize_op(404).unwrap_err(),
            MiddlewareError::SessionInvalid
        );
    }
}
